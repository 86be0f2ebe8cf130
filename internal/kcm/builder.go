package kcm

import (
	"slices"

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
// uses them, but tests compare the Patcher against them and build
// multi-processor fixtures with them, so they stay under a testonly
// allow. The Builder collects its rows and columns, and Matrix fills
// them through New.
type Builder struct {
	rows []Row
	cols []Col
	// colTab interns the columns by cube; a slot holds a position in
	// cols.
	colTab  colTable
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
//repolint:allow testonly -- reference Builder API for kcm's and rect's tests
func (b *Builder) AddFunction(v sop.Var, fn sop.Expr) int {
	b.pairs = b.kern.All(fn, b.opts, nil, nil, b.pairs[:0])
	for _, p := range b.pairs {
		b.rowSeq++
		row := Row{ID: b.rowSeq, Node: v, CoKernel: p.CoKernel}
		row.Entries = make([]Entry, 0, p.Kernel.NumCubes())
		for _, kc := range p.Kernel.Cubes() {
			col := b.internColumn(kc)
			fc, ok := p.CoKernel.Union(kc)
			if !ok {
				continue // contradictory: not a real function cube
			}
			row.Entries = append(row.Entries, Entry{
				Col:    col,
				CubeID: b.cubeID(v, fc),
				Weight: fc.Weight(),
			})
		}
		b.rows = append(b.rows, row)
	}
	return len(b.pairs)
}

// internColumn returns the label of cube's column, adding the column
// on first sight.
func (b *Builder) internColumn(cube sop.Cube) int64 {
	h := kernels.HashCube(cube)
	if k := b.colTab.find(h, cube, b.colCube); k >= 0 {
		return b.cols[k].ID
	}
	b.colSeq++
	b.colTab.insert(h, int32(len(b.cols)))
	b.cols = append(b.cols, Col{ID: b.colSeq, Cube: cube})
	return b.colSeq
}

// colCube returns the cube of the column at position pos.
func (b *Builder) colCube(pos int32) sop.Cube { return b.cols[pos].Cube }

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

// Matrix returns the matrix of the nodes added so far, filled through
// New. The builder may keep adding nodes afterwards; each call returns
// a new matrix.
//
//repolint:allow testonly -- reference Builder API for kcm's and rect's tests
func (b *Builder) Matrix() *Matrix {
	return New(b.cols, b.rows)
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

// Merge returns the union of dst and src: dst's rows, then src's, over
// dst's columns, then the columns of src whose cubes dst lacks. A cube
// both hold is one column under the smaller of its two labels, which
// keeps labels deterministic regardless of merge order, and every
// entry follows its column's label. Row and column labels are assumed
// disjoint, as when each processor's Builder kernels a disjoint node
// set. dst and src are only read.
//
//repolint:allow testonly -- the reference merge: kcm's tests compare multi-processor Patcher builds against it, and rect's tests merge band fixtures with it
func Merge(dst, src *Matrix) *Matrix {
	var cols []Col
	to := map[int64]int64{} // each column label of dst and src to its merged label
	for _, c := range dst.Cols() {
		cols = append(cols, Col{ID: c.ID, Cube: c.Cube})
		to[c.ID] = c.ID
	}
	for _, sc := range src.Cols() {
		if dc := dst.ColByCube(sc.Cube, sc.Hash); dc != nil {
			l := min(sc.ID, dc.ID)
			cols[dc.pos].ID, to[dc.ID], to[sc.ID] = l, l, l
			continue
		}
		cols = append(cols, Col{ID: sc.ID, Cube: sc.Cube})
		to[sc.ID] = sc.ID
	}
	var rows []Row
	for _, m := range []*Matrix{dst, src} {
		for _, r := range m.Rows() {
			nr := Row{ID: r.ID, Node: r.Node, CoKernel: r.CoKernel, Entries: slices.Clone(r.Entries)}
			for i := range nr.Entries {
				nr.Entries[i].Col = to[nr.Entries[i].Col]
			}
			rows = append(rows, nr)
		}
	}
	return New(cols, rows)
}
