// Package bitset implements fixed-width dense bit sets over []uint64
// words, the substrate of the rectangle-search fast path: row subsets,
// candidate-column masks and covered-cube sets are all bitsets, so the
// membership tests that dominate the Figure 1 enumeration compile to a
// handful of word instructions instead of map traffic.
//
// A Set is a plain slice; callers that need maximum speed may range
// over its words directly and extract bit positions with
// math/bits.TrailingZeros64, which is what internal/rect does.
package bitset

// Set is a dense bit set. Index i lives in word i/64 at bit i%64. The
// methods never grow the slice; size it with New or Words at creation.
type Set []uint64

// Words returns the number of uint64 words needed to hold n bits.
func Words(n int) int { return (n + 63) >> 6 }

// New returns a zeroed set with capacity for n bits.
func New(n int) Set { return make(Set, Words(n)) }

// Cap returns the number of bits the set can hold.
func (s Set) Cap() int { return len(s) << 6 }

// Test reports whether bit i is set.
func (s Set) Test(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (s Set) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s Set) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Reset clears every bit.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}
