package bitset

import (
	"math/rand"
	"testing"
)

func TestSetClearTest(t *testing.T) {
	s := New(200)
	if s.Cap() < 200 {
		t.Fatalf("cap %d < 200", s.Cap())
	}
	bits := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range bits {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := count(s); got != len(bits) {
		t.Fatalf("count = %d want %d", got, len(bits))
	}
	s.Clear(64)
	if s.Test(64) || count(s) != len(bits)-1 {
		t.Fatal("Clear failed")
	}
	s.Reset()
	if count(s) != 0 {
		t.Fatal("bits set after Reset")
	}
}

// TestSetClearAgainstMap drives random Set, Clear and Reset calls on a
// set and on a map, and requires every bit to agree after each call.
func TestSetClearAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	for trial := 0; trial < 50; trial++ {
		s, m := New(n), map[int]bool{}
		for op := 0; op < 200; op++ {
			switch i := rng.Intn(n); {
			case op == 150:
				s.Reset()
				clear(m)
			case rng.Intn(3) == 0:
				s.Clear(i)
				delete(m, i)
			default:
				s.Set(i)
				m[i] = true
			}
			for i := 0; i < n; i++ {
				if s.Test(i) != m[i] {
					t.Fatalf("trial %d op %d: bit %d is %v, want %v", trial, op, i, s.Test(i), m[i])
				}
			}
		}
	}
}

// count returns the number of set bits.
func count(s Set) int {
	n := 0
	for i := 0; i < s.Cap(); i++ {
		if s.Test(i) {
			n++
		}
	}
	return n
}
