// Package core implements the paper's contribution: three parallel
// algorithms for algebraic factorization (kernel extraction).
//
//   - Replicated (§3, Table 2): every worker holds a full copy of the
//     circuit and of the KC matrix; the rectangle search tree is split
//     by leftmost column; a barrier per extraction step selects one
//     global best rectangle which every worker redundantly applies.
//   - Partitioned (§4, Table 3): min-cut circuit partitions factored
//     completely independently, no interaction.
//   - LShaped (§5, Tables 4–6): min-cut partitions with L-shaped KC
//     matrices (disjoint kernel-cube ownership plus exchanged B_ij
//     overlap blocks) and a shared per-cube state machine that keeps
//     concurrent speculative covering consistent.
//
// All three run real goroutine workers over the virtual-time machine
// model of internal/vtime; see DESIGN.md for why speedups are
// measured in virtual time on this host.
//
// The package is determinism-critical: identical inputs must walk
// identical search paths so the paper's table comparisons are
// bit-for-bit reproducible (DESIGN.md §7).
//
//repolint:determinism-critical
//repolint:crash-tolerant
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/analysis/invariant"
)

// CubeState is the lifecycle of a function cube during concurrent
// extraction — Table 5 of the paper.
type CubeState int

const (
	// Free: not covered by any best rectangle; its full literal
	// value is claimable by anyone.
	Free CubeState = iota
	// Covered: speculatively covered by some worker's best
	// rectangle but not divided yet. The owner still sees the true
	// value (it may replace its own best rectangle); everyone else
	// sees zero.
	Covered
	// Divided: covered by an extracted rectangle and rewritten;
	// worth zero to everyone, permanently.
	Divided
)

// String renders the state as in Table 5.
func (s CubeState) String() string {
	switch s {
	case Free:
		return "FREE"
	case Covered:
		return "COVERED"
	case Divided:
		return "DIVIDED"
	}
	return "?"
}

// legalTransition reports whether Table 5 allows old → next. FREE and
// COVERED trade places and either may be divided; DIVIDED is
// absorbing — a divided cube's value is gone permanently, so any
// transition out of it would double-count literals.
func legalTransition(old, next CubeState) bool {
	switch {
	case old == next:
		return true
	case old == Free && next == Covered:
		return true
	case old == Covered && next == Free:
		return true
	case old == Divided:
		return false
	default: // Free/Covered → Divided
		return next == Divided
	}
}

// cubeWord packs one cube's whole entry in the table — its Table 5
// state, owner and trueval — so that a reader gets all three from one
// atomic load: bits 0–1 hold the state, bits 2–31 the owner and bits
// 32–63 the trueval. The zero word is a FREE cube, so an id that was
// never written reads FREE.
type cubeWord uint64

const (
	ownerShift = 2
	trueShift  = 32
	maxOwner   = 1<<(trueShift-ownerShift) - 1
	maxTrueval = 1<<(64-trueShift) - 1
)

func packCube(s CubeState, owner, trueval int) cubeWord {
	if owner < 0 || owner > maxOwner || trueval < 0 || uint64(trueval) > maxTrueval {
		panic(fmt.Sprintf("core: cube owner %d or trueval %d does not fit the state word", owner, trueval))
	}
	return cubeWord(s) | cubeWord(owner)<<ownerShift | cubeWord(trueval)<<trueShift
}

func (w cubeWord) state() CubeState { return CubeState(w & (1<<ownerShift - 1)) }
func (w cubeWord) owner() int       { return int(w >> ownerShift & maxOwner) }
func (w cubeWord) trueval() int     { return int(w >> trueShift) }

// pageShift sets the page size: a page holds the words of 1024
// consecutive cube ids, so pages are spent only on the id ranges
// actually touched (worker p's ids start at p·kcm.Stride+1); below
// the largest id the rest costs one nil directory slot per 1024 ids.
const (
	pageShift = 10
	pageWords = 1 << pageShift
)

type statePage [pageWords]atomic.Uint64

// StateTable is the shared cube-state table of §5.3: per function
// cube (by global CubeID, which must not be negative), the current
// value, the saved true value, and the speculating owner. It is safe
// for concurrent use, under this contract:
//
//   - Reads take no lock. Value and State are one atomic load of the
//     cube's word, so the rectangle search pays no lock and no hashing
//     per matrix entry.
//   - Writes are serialized. Cover, Release, Divide and Claim each
//     update their whole cube set under one writer mutex, word by
//     word, so a lock-free reader may see a peer's multi-cube write
//     half applied. That is no new kind of staleness: a search could
//     always see peer writes land between two of its reads.
//   - Claim re-reads every value under the writer mutex and divides
//     the cubes before releasing it, and DIVIDED is absorbing, so no
//     cube's value is banked twice however stale the search was.
//   - Every write that changes a cube's word appends the cube to an
//     append-only change log under the same mutex. A worker memoizing
//     its search reads the log from its own cursor (Changes) to learn
//     which cubes' values may have moved since its last search.
//
// Workers pay a modeled lock cost via their machine clocks (charged by
// the callers, which know their worker ids — repolint's vtimecharge
// analyzer holds callers to that).
//
//repolint:shared-state
type StateTable struct {
	// mu serializes the writers; readers never take it.
	mu sync.Mutex
	// pages is the page directory: page i holds the words of cube
	// ids i·pageWords to (i+1)·pageWords−1, and is nil until one of
	// them is written. A published directory is never modified:
	// a writer adds a page by publishing a grown copy.
	pages atomic.Pointer[[]*statePage]
	// ownerCheck mirrors the paper's owner-qualified COVERED state.
	// When disabled (ablation), a covered cube reads as zero even
	// to its owner, reintroducing the order-dependent bias of the
	// {(1,2)(4,5)} example in §5.3.
	ownerCheck atomic.Bool
	// changes logs, in write order, every write that changed a
	// cube's word; it is guarded by mu. It only grows: a table
	// lives for one L-shaped call. Entries below the length a
	// reader saw under mu are never rewritten, so the reader may
	// scan them after releasing mu.
	changes []change
}

// change is one logged write: it changed cube id's word. by is the
// worker whose own Cover or Release made the change, or -1 for a
// division.
type change struct {
	id int64
	by int
}

// NewStateTable returns an empty table with the owner check enabled.
func NewStateTable() *StateTable {
	st := &StateTable{}
	st.pages.Store(new([]*statePage))
	st.ownerCheck.Store(true)
	return st
}

// SetOwnerCheck toggles the owner-qualified value rule (ablation).
// It may race with the workers: each read sees one setting or the
// other. A toggle is not a write: it changes the values of covered
// cubes without logging them, so it must not happen while a worker
// memoizes against the change log.
func (st *StateTable) SetOwnerCheck(on bool) {
	st.ownerCheck.Store(on)
}

// word returns the current word of cube id; an id never written
// reads as the zero (FREE) word.
func (st *StateTable) word(id int64) cubeWord {
	pages := *st.pages.Load()
	i := uint64(id) >> pageShift
	if i >= uint64(len(pages)) || pages[i] == nil {
		return 0
	}
	return cubeWord(pages[i][id&(pageWords-1)].Load())
}

// Value returns the literal value worker p may claim for cube id
// whose uncovered worth is weight: FREE cubes are worth their weight,
// COVERED cubes their true value to the owner and zero to others,
// DIVIDED cubes zero to everyone.
func (st *StateTable) Value(p int, id int64, weight int) int {
	w := st.word(id)
	switch w.state() {
	case Free:
		return weight
	case Covered:
		if w.owner() == p && st.ownerCheck.Load() {
			return w.trueval()
		}
	}
	return 0
}

// State returns the current state of a cube (FREE if never seen).
func (st *StateTable) State(id int64) CubeState {
	return st.word(id).state()
}

// setStateLocked stores cube id's next word, adding the cube's page if
// it has none, logs the change as made by by (see change), and asserts
// Table 5 legality when the invariants build tag is on. A write that
// leaves the word as it was is neither stored nor logged. Callers hold
// st.mu.
func (st *StateTable) setStateLocked(id int64, next cubeWord, by int) {
	old := st.word(id)
	if old == next {
		return
	}
	if invariant.Enabled {
		invariant.Assert(legalTransition(old.state(), next.state()),
			"illegal Table 5 transition %v -> %v for cube %d (owner %d)", old.state(), next.state(), id, old.owner())
	}
	pages := *st.pages.Load()
	i := int(id >> pageShift)
	if i >= len(pages) || pages[i] == nil {
		grown := make([]*statePage, max(len(pages), i+1))
		copy(grown, pages)
		grown[i] = new(statePage)
		st.pages.Store(&grown)
		pages = grown
	}
	pages[i][id&(pageWords-1)].Store(uint64(next))
	st.changes = append(st.changes, change{id: id, by: by})
}

// Changes calls fn, in write order, for each cube whose word a write
// logged at position from or later changed, and returns the position
// to resume from. It skips worker p's own Covers and Releases while
// the owner check is on: a cube p covered reads its trueval, which is
// the weight it read before, so those writes leave p's values as they
// were. Every other logged write may change p's values. Changes takes
// the writer mutex only to read the log's length; fn runs without it.
func (st *StateTable) Changes(p, from int, fn func(id int64)) int {
	log := st.logFrom(from)
	skipOwn := st.ownerCheck.Load()
	for _, c := range log {
		if c.by != p || !skipOwn {
			fn(c.id)
		}
	}
	return from + len(log)
}

// Pending reports whether Changes(p, from, ...) would deliver a cube.
func (st *StateTable) Pending(p, from int) bool {
	pending := false
	st.Changes(p, from, func(int64) { pending = true })
	return pending
}

// logFrom returns the change log from position from to its current
// end.
func (st *StateTable) logFrom(from int) []change {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.changes[from:len(st.changes):len(st.changes)]
}

// Cover marks the cubes as speculatively covered by worker p, saving
// their true values. Cubes already divided, or covered by another
// worker, are left alone (p could not claim their value anyway).
func (st *StateTable) Cover(p int, ids []int64, weights []int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, id := range ids {
		if st.word(id).state() == Free {
			st.setStateLocked(id, packCube(Covered, p, weights[i]), p)
		}
	}
}

// Release copies true values back for the cubes worker p had covered
// (it found a better rectangle, §5.3), making them FREE again.
func (st *StateTable) Release(p int, ids []int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.releaseLocked(p, ids)
}

func (st *StateTable) releaseLocked(p int, ids []int64) {
	for _, id := range ids {
		if w := st.word(id); w.state() == Covered && w.owner() == p {
			st.setStateLocked(id, cubeWord(Free), p)
		}
	}
}

// Divide marks the cubes as divided — covered by an extracted
// rectangle — permanently worth zero.
func (st *StateTable) Divide(ids []int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range ids {
		st.setStateLocked(id, cubeWord(Divided), -1)
	}
}

// Claim atomically re-validates and finalizes a claim: it recomputes
// the total value of the given cubes as seen by worker p, and if
// accept(value) returns true, marks them all divided and reports
// success. Used at extraction time so that of two workers speculating
// on overlapping rectangles, only one banks the shared cubes' value:
// the recount and the division happen under the writer mutex, so no
// other writer can move the cubes in between.
func (st *StateTable) Claim(p int, ids []int64, weights []int, accept func(total int) bool) (int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	total := 0
	seen := map[int64]bool{}
	for i, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		total += st.Value(p, id, weights[i])
	}
	if !accept(total) {
		// Failed claims release p's speculative covers so other
		// workers can use the cubes.
		st.releaseLocked(p, ids)
		return total, false
	}
	for _, id := range ids {
		st.setStateLocked(id, cubeWord(Divided), -1)
	}
	return total, true
}
