// Package a exercises the indexinvalidate analyzer: method-hook and
// field-hook annotated types, direct and transitive mutation, cache
// fills, and exported functions.
package a

// Matrix mimics kcm.Matrix: structural fields plus cached views that
// the invalidate method drops.
//
//repolint:invalidate invalidate
type Matrix struct {
	rows   []int
	byID   map[int]int
	cached []int
	index  *int
}

// invalidate drops the cached views.
func (m *Matrix) invalidate() {
	m.cached = nil
	m.index = nil
}

// AddRow mutates and invalidates: ok.
func (m *Matrix) AddRow(r int) {
	m.rows = append(m.rows, r)
	m.invalidate()
}

// AddRowBad mutates without invalidating.
func (m *Matrix) AddRowBad(r int) { // want `AddRowBad mutates Matrix field\(s\) rows but never reaches invalidation hook "invalidate"`
	m.rows = append(m.rows, r)
}

// Insert mutates transitively through a helper that invalidates: ok.
func (m *Matrix) Insert(k, v int) {
	m.put(k, v)
}

func (m *Matrix) put(k, v int) {
	m.byID[k] = v
	m.invalidate()
}

// Delete mutates through the delete builtin without invalidating.
func (m *Matrix) Delete(k int) { // want `Delete mutates Matrix field\(s\) byID but never reaches invalidation hook "invalidate"`
	delete(m.byID, k)
}

// Cached fills a cache field only — the fields invalidate itself
// writes — so no invalidation is required: ok.
func (m *Matrix) Cached() []int {
	if m.cached == nil {
		m.cached = append([]int(nil), m.rows...)
	}
	return m.cached
}

// Merge is an exported function, not a method; it must invalidate too.
func Merge(dst, src *Matrix) { // want `Merge mutates Matrix field\(s\) rows but never reaches invalidation hook "invalidate"`
	dst.rows = append(dst.rows, src.rows...)
}

// Counter's hook is a version field: touching it (increment or
// assignment) counts as invalidation.
//
//repolint:invalidate version
type Counter struct {
	n       int
	version uint64
}

// Inc bumps the version: ok.
func (c *Counter) Inc() {
	c.n++
	c.version++
}

// IncBad forgets the version bump.
func (c *Counter) IncBad() { // want `IncBad mutates Counter field\(s\) n but never reaches invalidation hook "version"`
	c.n++
}
