// Package a exercises the lockdiscipline analyzer: guarded-field
// access with and without the mutex, Locked-suffix and
// repolint:requires conventions, reentrant acquisition, and a broken
// annotation.
package a

import "sync"

// Table is a map and a flag behind one mutex.
type Table struct {
	mu sync.Mutex
	// vals is guarded by mu.
	vals map[int]int
	// flag is guarded by mu.
	flag bool
}

// Get locks the mutex around its guarded access: ok.
func (t *Table) Get(k int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vals[k]
}

// SetFlag writes a guarded field without the lock — the
// SetOwnerCheck bug class.
func (t *Table) SetFlag(on bool) {
	t.flag = on // want `SetFlag accesses Table.flag \(guarded by mu\) without holding mu`
}

// sumLocked follows the Locked naming convention — every caller holds
// mu — so its guarded accesses are ok.
func (t *Table) sumLocked() int {
	s := 0
	for _, v := range t.vals {
		s += v
	}
	return s
}

// Sum holds mu; calling sumLocked is fine, but calling Get reacquires
// mu on the same receiver — a guaranteed self-deadlock.
func (t *Table) Sum() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.sumLocked()
	return total + t.Get(0) // want `Sum holds mu and calls Get, which acquires mu on the same receiver`
}

// apply documents via annotation that callers hold mu: ok.
//
//repolint:requires mu
func (t *Table) apply(d int) {
	t.flag = d > 0
}

// badApply runs with mu held yet calls the locking Get.
//
//repolint:requires mu
func (t *Table) badApply() int {
	return t.Get(1) // want `badApply holds mu and calls Get, which acquires mu on the same receiver`
}

// Peek is a plain function touching guarded state without the lock.
func Peek(t *Table) int {
	return t.vals[0] // want `Peek accesses Table.vals \(guarded by mu\) without holding mu`
}

// Drain locks through a parameter variable: ok.
func Drain(t *Table) map[int]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.vals
	t.vals = map[int]int{}
	return v
}

// Broken has a guard annotation naming a nonexistent mutex.
type Broken struct {
	// x is guarded by missing.
	x int // want `field is guarded by "missing", but Broken has no such field`
}

var _ = Broken{}.x
