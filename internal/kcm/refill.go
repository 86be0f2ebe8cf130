package kcm

// slabs is the storage Patcher.Assemble, Compose or New fills a matrix
// into. A fill takes over the storage of the matrix filled before it
// (refill), so a Patcher that assembles once per factorization call,
// or an L-shaped worker that composes once per call, allocates only
// when a slab has to grow. The matrix's own lists, label bands and
// column table move along with the slabs.
type slabs struct {
	rows    []Row
	entries []Entry
	// colRefs holds the column position of each entry, row after
	// row, for finish.
	colRefs []int32
	cols    []Col
	// colSrc is Patcher.Assemble's list of the proto entry each column
	// was interned from.
	colSrc []*protoEntry
	// counts and rowIDs are finish's per-column counts and the slab
	// of every column's RowIDs.
	counts []int32
	rowIDs []int64
	// ix is the superseded matrix's last index, whose slices the new
	// matrix's first Index call refills, or nil.
	ix *Index
	// gen counts the fills; the matrix that may read the storage
	// carries the current one in Matrix.gen.
	gen uint64
}

// refill returns an empty matrix that holds the storage of m, to be
// filled in its place, or one with new storage when m is nil. m is
// superseded: it reads as empty, and in the invariants build any
// access to it panics. m's index, if it built one, is kept for the new
// matrix's Index to refill; the Index value itself is never reused, so
// a rect.Cover whose memo was bound to it sees a new snapshot.
// Refilling a matrix that was already superseded panics: its storage
// belongs to a newer matrix.
func refill(m *Matrix) *Matrix {
	if m == nil {
		return &Matrix{slabs: &slabs{}}
	}
	s := m.slabs
	if m.gen != s.gen {
		panic("kcm: refilling a matrix whose storage a newer fill already took over")
	}
	s.gen++
	if m.index != nil {
		s.ix = m.index
	}
	n := &Matrix{rows: m.rows, cols: m.cols, rowAt: m.rowAt, colAt: m.colAt, colTab: m.colTab, slabs: s, gen: s.gen}
	*m = Matrix{slabs: s, gen: m.gen}
	return n
}

// resize returns s with length n, reusing its array when it holds n
// elements and allocating a new one otherwise. The elements s held
// past n are zeroed, so an array keeps nothing alive past the prefix in
// use, and the ones below n keep their old values for the caller to
// overwrite or clear.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	if n < len(s) {
		clear(s[n:])
	}
	return s[:n]
}
