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
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("count = %d want 8", got)
	}
	s.Clear(64)
	if s.Test(64) || s.Count() != 7 {
		t.Fatal("Clear failed")
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("bits set after Reset")
	}
}

func TestAndOrAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	for trial := 0; trial < 50; trial++ {
		a, b := New(n), New(n)
		am, bm := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Set(i)
				am[i] = true
			}
			if rng.Intn(3) == 0 {
				b.Set(i)
				bm[i] = true
			}
		}
		and := New(n)
		and.And(a, b)
		for i := 0; i < n; i++ {
			if and.Test(i) != (am[i] && bm[i]) {
				t.Fatalf("and bit %d wrong", i)
			}
		}
	}
}
