package kcm

import (
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// Builder constructs a Matrix from network nodes, drawing row, column
// and cube identifiers from a processor-specific offset range so that
// concurrent builders on disjoint node sets produce globally
// consistent labels (paper §5.2).
//
// Builder and Merge are the reference construction: the direct,
// one-node-at-a-time transcription of §2 and §5.2. No production path
// uses them — every matrix is built by a Patcher — but tests compare
// the Patcher against them and build multi-processor fixtures with
// them, so they stay under a testonly allow.
type Builder struct {
	m       *Matrix
	rowSeq  int64
	colSeq  int64
	cubeSeq int64
	opts    kernels.Options
	// cubeIDs assigns one global id per (node, function cube) via a
	// hashed two-level index: first level by node, second an
	// open-addressing table over the cube hash.
	cubeIDs map[sop.Var]*cubeTable
	// kern and pairs are scratch reused across AddFunction calls so
	// per-node kernel generation stops allocating its working state.
	kern  kernels.Kerneler
	pairs []kernels.Pair
}

// NewBuilder returns a builder whose labels start at proc·Stride+1.
// proc 0 therefore labels from 1, proc 1 from 100001, matching the
// paper's Example 5.1.
//
//repolint:allow testonly -- the reference construction: kcm's tests compare the Patcher against it, and rect's property and subtree tests build band fixtures with it
func NewBuilder(proc int, opts kernels.Options) *Builder {
	base := int64(proc) * Stride
	return &Builder{
		m:       NewMatrix(),
		rowSeq:  base,
		colSeq:  base,
		cubeSeq: base,
		opts:    opts,
		cubeIDs: map[sop.Var]*cubeTable{},
	}
}

// AddNode generates the kernels of node v's function and adds one row
// per (kernel, co-kernel) pair. It returns the number of rows added.
//
//repolint:allow testonly -- reference Builder API for kcm's tests
func (b *Builder) AddNode(nw *network.Network, v sop.Var) int {
	nd := nw.Node(v)
	if nd == nil {
		return 0
	}
	return b.AddFunction(v, nd.Fn)
}

// AddFunction is AddNode for an explicit function, for tests that
// build matrices from generated expressions without a network.
//
// Column row-lists are restored lazily: Matrix() re-sorts any column
// that saw an out-of-order insertion, so a build over many nodes pays
// for column sorting once at finalize instead of once per node.
//
//repolint:allow testonly -- reference Builder API for kcm's and rect's tests
func (b *Builder) AddFunction(v sop.Var, fn sop.Expr) int {
	b.pairs = b.kern.All(fn, b.opts, nil, nil, b.pairs[:0])
	for _, p := range b.pairs {
		b.rowSeq++
		row := &Row{ID: b.rowSeq, Node: v, CoKernel: p.CoKernel}
		row.Entries = make([]Entry, 0, p.Kernel.NumCubes())
		for _, kc := range p.Kernel.Cubes() {
			col := b.internColumn(kc)
			fc, ok := p.CoKernel.Union(kc)
			if !ok {
				continue // contradictory: not a real function cube
			}
			row.Entries = append(row.Entries, Entry{
				Col:    col.ID,
				CubeID: b.cubeID(v, fc),
				Weight: fc.Weight(),
			})
		}
		b.m.addRow(row)
	}
	return len(b.pairs)
}

func (b *Builder) internColumn(cube sop.Cube) *Col {
	if c := b.m.ColByCube(cube, kernels.HashCube(cube)); c != nil {
		return c
	}
	b.colSeq++
	return b.m.internCol(cube, b.colSeq)
}

func (b *Builder) cubeID(v sop.Var, fc sop.Cube) int64 {
	t := b.cubeIDs[v]
	if t == nil {
		t = &cubeTable{}
		b.cubeIDs[v] = t
	}
	h := kernels.HashCube(fc)
	if id, ok := t.lookup(h, fc); ok {
		return id
	}
	b.cubeSeq++
	t.insert(h, fc, b.cubeSeq)
	return b.cubeSeq
}

// Matrix returns the matrix built so far, with column row-lists
// restored to sorted order. The builder may keep adding nodes
// afterwards; the matrix is live.
//
//repolint:allow testonly -- reference Builder API for kcm's and rect's tests
func (b *Builder) Matrix() *Matrix {
	b.m.sortColRows()
	return b.m
}

// cubeTable is the second level of the cube-id interner: an
// open-addressing map from function cube to its global id.
type cubeTable struct {
	slots []cubeSlot
	n     int
}

type cubeSlot struct {
	hash uint64
	cube sop.Cube
	id   int64 // 0 = empty (ids start at proc·Stride+1 ≥ 1)
}

// reset clears the table while keeping its slot storage.
func (t *cubeTable) reset() {
	for i := range t.slots {
		t.slots[i] = cubeSlot{}
	}
	t.n = 0
}

func (t *cubeTable) lookup(h uint64, c sop.Cube) (int64, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i].id != 0; i = (i + 1) & mask {
		if t.slots[i].hash == h && t.slots[i].cube.Equal(c) {
			return t.slots[i].id, true
		}
	}
	return 0, false
}

func (t *cubeTable) insert(h uint64, c sop.Cube, id int64) {
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = cubeSlot{hash: h, cube: c, id: id}
	t.n++
}

func (t *cubeTable) grow() {
	old := t.slots
	size := 16
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.slots = make([]cubeSlot, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := s.hash & mask
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Merge folds src into dst, unifying columns that hold the same
// kernel cube (the smaller label wins, keeping labels deterministic
// regardless of merge order) and re-labeling src's entries
// accordingly. Rows are assumed disjoint from dst's, as when each
// processor's Builder kernels a disjoint node set.
//
//repolint:allow testonly -- the reference merge: kcm's tests compare multi-processor Patcher builds against it, and rect's tests merge band fixtures with it
func Merge(dst, src *Matrix) {
	remap := map[int64]int64{}
	for _, sc := range src.cols {
		if dc := dst.ColByCube(sc.Cube, sc.Hash); dc != nil {
			if sc.ID < dc.ID {
				// Relabel dst's column to the smaller id. Only the
				// rows listed on the column carry an entry for it, so
				// the relabel walks dc.RowIDs instead of every row.
				dst.colAt.set(dc.ID, nil)
				oldID := dc.ID
				dc.ID = sc.ID
				dst.colAt.set(dc.ID, dc)
				dst.invalidate()
				for _, rid := range dc.RowIDs {
					relabelEntry(dst.Row(rid), oldID, dc.ID)
				}
			}
			remap[sc.ID] = dc.ID
		} else {
			dst.internCol(sc.Cube, sc.ID)
			remap[sc.ID] = sc.ID
		}
	}
	for _, sr := range src.rows {
		nr := &Row{ID: sr.ID, Node: sr.Node, CoKernel: sr.CoKernel}
		nr.Entries = make([]Entry, 0, len(sr.Entries))
		for _, e := range sr.Entries {
			e.Col = remap[e.Col]
			nr.Entries = append(nr.Entries, e)
		}
		dst.addRow(nr)
	}
	dst.sortColRows()
}

// relabelEntry rewrites the single entry of r in column oldID to
// newID and shifts it left to its sorted position. newID is always
// smaller than oldID (smaller-label-wins), so only a leftward shift
// can be needed.
func relabelEntry(r *Row, oldID, newID int64) {
	i, ok := findEntry(r.Entries, oldID)
	if !ok {
		return
	}
	e := r.Entries[i]
	e.Col = newID
	for i > 0 && r.Entries[i-1].Col > newID {
		r.Entries[i] = r.Entries[i-1]
		i--
	}
	r.Entries[i] = e
}

// findEntry locates the entry with the given column id in a
// column-sorted entry slice.
func findEntry(entries []Entry, col int64) (int, bool) {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].Col < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(entries) && entries[lo].Col == col
}
