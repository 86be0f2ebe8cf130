package bitset

import (
	"math/bits"
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

func TestIterationOrder(t *testing.T) {
	s := New(500)
	want := []int{3, 64, 65, 130, 255, 256, 499}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach[%d] = %d want %d", i, got[i], want[i])
		}
	}
	got = s.Iterate(got[:0])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Iterate[%d] = %d want %d", i, got[i], want[i])
		}
	}
	// NextSet walks the same sequence.
	idx := 0
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		if i != want[idx] {
			t.Fatalf("NextSet gave %d want %d", i, want[idx])
		}
		idx++
	}
	if idx != len(want) {
		t.Fatalf("NextSet visited %d bits want %d", idx, len(want))
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(100)
	s.Set(1)
	s.Set(2)
	s.Set(3)
	n := 0
	s.ForEach(func(i int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d bits want 2", n)
	}
}

func TestPoolReuse(t *testing.T) {
	var p Pool
	s := p.Get(128)
	s.Set(5)
	p.Put(s)
	s2 := p.Get(64)
	if s2.Count() != 0 {
		t.Fatal("pooled set not zeroed")
	}
	if s2.Cap() < 64 {
		t.Fatalf("cap %d < 64", s2.Cap())
	}
	big := p.Get(10000)
	if big.Cap() < 10000 {
		t.Fatalf("cap %d < 10000", big.Cap())
	}
}

// NextSet returns the position of the first set bit at or after i, or
// -1 when none remains.
func (s Set) NextSet(i int) int {
	if i >= s.Cap() {
		return -1
	}
	wi := i >> 6
	w := s[wi] >> (uint(i) & 63) << (uint(i) & 63)
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(s) {
			return -1
		}
		w = s[wi]
	}
}

// ForEach calls fn on every set bit in ascending order until fn
// returns false.
func (s Set) ForEach(fn func(i int) bool) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if !fn(wi<<6 + b) {
				return
			}
		}
	}
}

// Iterate appends the positions of all set bits to dst in ascending
// order and returns the extended slice.
func (s Set) Iterate(dst []int) []int {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			dst = append(dst, wi<<6+b)
		}
	}
	return dst
}
