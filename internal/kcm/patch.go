package kcm

// This file implements the incremental matrix-build layer (DESIGN.md
// §12). Kernel generation is split from labeling: per node the
// Patcher caches a label-free "proto" — (co-kernel, kernel cube,
// function cube) triples in kernels.All order, with all cube storage
// owned by a per-node arena — and a deterministic sequential assemble
// pass assigns row/column/cube labels exactly as the reference
// Builder would. Because labels never live in the cache:
//
//   - parallel kerneling (any worker count, any interleaving) yields a
//     matrix bit-identical to the one-node-at-a-time Builder, and
//   - re-kerneling only the nodes a division dirtied yields a matrix
//     bit-identical to a from-scratch rebuild.
//
// Three functions fill KC matrices, all through finish: the Patcher's
// Assemble (Build is a one-shot Patcher, and drivers keep one across
// calls), Compose, which builds L-shaped matrices from Patcher
// matrices, and New, which fills rows and columns its caller made,
// such as the cube-literal matrix of internal/extract.
//
// Invalidation protocol: MarkDirty only queues invalidation; a dirty
// node's arena chunks are recycled at the *next* Rebuild, so the
// outgoing matrix stays fully valid until its replacement is started.
// Callers must stop using a Rebuild result once they call Rebuild (or
// MakeBatches) again on the same Patcher: that call supersedes it, and
// the next Assemble refills its storage.

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/fanout"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/network"
	"repro/internal/sop"
)

// BuildStats counts incremental matrix-build work; the service surfaces
// these per pool in /v1/stats.
type BuildStats struct {
	// BuildNS is wall time spent inside Rebuild (kerneling + assembly).
	BuildNS int64 `json:"build_ns"`
	// NodesKerneled counts nodes whose kernels were (re)generated.
	NodesKerneled int64 `json:"nodes_kerneled"`
	// PairsKerneled counts (kernel, co-kernel) pairs generated, i.e.
	// matrix rows actually rebuilt rather than reused from cache.
	PairsKerneled int64 `json:"pairs_kerneled"`
	// EntriesBuilt counts matrix entries generated for rebuilt rows.
	EntriesBuilt int64 `json:"entries_built"`
	// NodesReused counts per-node rebuilds avoided: nodes whose cached
	// proto was reused by an assemble instead of being re-kerneled.
	NodesReused int64 `json:"nodes_reused"`
	// ArenaBytesReused is the total cube storage served from recycled
	// arena chunks instead of fresh heap allocations.
	ArenaBytesReused int64 `json:"arena_bytes_reused"`
}

// Add accumulates o into s.
func (s *BuildStats) Add(o BuildStats) {
	s.BuildNS += o.BuildNS
	s.NodesKerneled += o.NodesKerneled
	s.PairsKerneled += o.PairsKerneled
	s.EntriesBuilt += o.EntriesBuilt
	s.NodesReused += o.NodesReused
	s.ArenaBytesReused += o.ArenaBytesReused
}

// Sub returns s - o (the delta between two cumulative snapshots).
func (s BuildStats) Sub(o BuildStats) BuildStats {
	return BuildStats{
		BuildNS:          s.BuildNS - o.BuildNS,
		NodesKerneled:    s.NodesKerneled - o.NodesKerneled,
		PairsKerneled:    s.PairsKerneled - o.PairsKerneled,
		EntriesBuilt:     s.EntriesBuilt - o.EntriesBuilt,
		NodesReused:      s.NodesReused - o.NodesReused,
		ArenaBytesReused: s.ArenaBytesReused - o.ArenaBytesReused,
	}
}

// protoEntry is one kernel cube of one pair. The function cube
// (co-kernel ∪ column) is not stored: it only determines the entry's
// node-local cube ordinal and weight, both computed at kernel time so
// the cube itself can live in per-batch scratch storage. ord = -1
// records a contradictory union — the reference Builder interns the
// column but adds no entry, and assemble replicates that exactly.
type protoEntry struct {
	col     sop.Cube
	colHash uint64
	// ord is the first-occurrence ordinal of the entry's function cube
	// among the node's entries in emission order; the reference
	// Builder assigns cube ids in exactly that order, so assemble can
	// label the cube nodeCubeBase + ord + 1 without re-hashing it.
	ord    int32
	weight int32
}

// protoPair is one (kernel, co-kernel) pair as a slice [lo:hi) of the
// owning proto's flat entry list.
type protoPair struct {
	coKernel sop.Cube
	lo, hi   int32
}

// nodeProto is the cached, label-free kernel data of one node. Every
// cube it references is owned by its arena (or by the node's own
// function expression); the arena is recycled when the proto is
// replaced.
type nodeProto struct {
	node    sop.Var
	arena   *sop.Arena
	pairs   []protoPair
	entries []protoEntry
	// distinct is the number of distinct function cubes across the
	// node's entries — how many cube ids assemble must reserve.
	distinct int32
}

// Patcher caches per-node kernel protos and assembles KC matrices from
// them, re-kerneling only nodes that were marked dirty since the last
// Rebuild. It also keeps the storage of the matrix it assembled last —
// its row, entry, column and RowIDs slabs, its row and column lists,
// label bands and column table, and its dense index's arrays — and the
// next Assemble refills it, so a driver that keeps one Patcher across
// its factorization calls allocates matrix storage only when a matrix
// outgrows the last one. The zero Patcher is not ready; use
// NewPatcher. A Patcher is not safe for concurrent use except where
// methods say otherwise.
type Patcher struct {
	proc   int
	opts   kernels.Options
	protos map[sop.Var]*nodeProto
	dirty  map[sop.Var]struct{}
	// free holds recycled arenas ready for reuse; retired holds arenas
	// whose chunks may still be referenced by the outgoing matrix and
	// become free at the next Rebuild.
	free    []*sop.Arena
	retired []*sop.Arena
	// arenas is the registry of every arena this patcher created, in
	// creation order, so stats can be summed deterministically.
	arenas []*sop.Arena
	stats  BuildStats
	// last is the matrix the last Assemble returned, until a new build
	// supersedes it; blank then holds its storage, empty, for the next
	// Assemble to fill.
	last, blank *Matrix
}

// NewPatcher returns a patcher whose assembled labels start at
// proc·Stride+1, the §5.2 offset of processor proc: proc 0 labels from
// 1, proc 1 from 100001 (Example 5.1). Its matrices are bit-identical
// to those of the reference NewBuilder(proc, opts).
func NewPatcher(proc int, opts kernels.Options) *Patcher {
	return &Patcher{
		proc:   proc,
		opts:   opts,
		protos: map[sop.Var]*nodeProto{},
		dirty:  map[sop.Var]struct{}{},
	}
}

// Stats returns the cumulative build counters.
func (p *Patcher) Stats() BuildStats { return p.stats }

// MarkDirty queues node v for re-kerneling at the next Rebuild. Safe
// to call between Rebuilds; the current matrix stays valid.
func (p *Patcher) MarkDirty(v sop.Var) {
	p.dirty[v] = struct{}{}
}

// Pending returns, in nodes order, the subset that must be
// (re)kerneled before the next assemble: nodes with no cached proto or
// marked dirty.
func (p *Patcher) Pending(nodes []sop.Var) []sop.Var {
	var out []sop.Var
	for _, v := range nodes {
		if _, ok := p.protos[v]; !ok {
			out = append(out, v)
			continue
		}
		if _, d := p.dirty[v]; d {
			out = append(out, v)
		}
	}
	return out
}

// Batch accumulates freshly kerneled protos. Distinct batches may be
// filled concurrently (one per worker); each batch is single-threaded.
type Batch struct {
	opts    kernels.Options
	kern    kernels.Kerneler
	scratch []kernels.Pair
	// sa is the batch's scratch arena: recursion intermediates and
	// function cubes land here and are recycled at every node, so only
	// data the proto actually keeps occupies the per-node arena.
	sa      *sop.Arena
	tab     cubeTable
	free    []*sop.Arena
	created []*sop.Arena
	protos  []*nodeProto
	// pairsK/entriesK count pairs and (ok) entries generated by this
	// batch, folded into the patcher's stats at Commit.
	pairsK   int64
	entriesK int64
}

// scratchArenas pools batch scratch arenas process-wide: scratch
// storage never escapes a batch (Commit resets it before returning it
// here), so even one-shot Build calls reuse warmed-up chunks.
var scratchArenas = sync.Pool{New: func() any { return new(sop.Arena) }}

// MakeBatches hands out n batches, distributing the patcher's recycled
// arenas among them. Must not be called while batches from a previous
// call are still being filled. Calling it begins a new build: the
// matrix the last Assemble returned is superseded (it reads as empty,
// and the next Assemble refills its storage), and retired arenas are
// recycled.
func (p *Patcher) MakeBatches(n int) []*Batch {
	if n < 1 {
		n = 1
	}
	p.supersede()
	p.recycleRetired()
	bs := make([]*Batch, n)
	for i := range bs {
		bs[i] = &Batch{opts: p.opts, sa: scratchArenas.Get().(*sop.Arena)}
	}
	for i, a := range p.free {
		b := bs[i%n]
		b.free = append(b.free, a)
	}
	p.free = p.free[:0]
	return bs
}

// Kernel generates node v's proto into the batch and returns the
// number of (kernel, co-kernel) pairs found, for vtime charging.
func (b *Batch) Kernel(nw *network.Network, v sop.Var) int {
	var a *sop.Arena
	if k := len(b.free); k > 0 {
		a = b.free[k-1]
		b.free = b.free[:k-1]
	} else {
		a = &sop.Arena{}
		b.created = append(b.created, a)
	}
	np := &nodeProto{node: v, arena: a}
	if nd := nw.Node(v); nd != nil {
		b.sa.Reset()
		b.scratch = b.kern.All(nd.Fn, b.opts, a, b.sa, b.scratch[:0])
		pairs := b.scratch
		total := 0
		for i := range pairs {
			total += pairs[i].Kernel.NumCubes()
		}
		np.pairs = make([]protoPair, 0, len(pairs))
		np.entries = make([]protoEntry, 0, total)
		b.tab.reset()
		var distinct int32
		for i := range pairs {
			pr := &pairs[i]
			lo := int32(len(np.entries))
			for _, kc := range pr.Kernel.Cubes() {
				e := protoEntry{col: kc, colHash: kernels.HashCube(kc), ord: -1}
				if fc, uok := pr.CoKernel.UnionArena(kc, b.sa); uok {
					b.entriesK++
					fh := kernels.HashCube(fc)
					id, found := b.tab.lookup(fh, fc)
					if !found {
						distinct++
						id = int64(distinct)
						b.tab.insert(fh, fc, id)
					}
					e.ord = int32(id - 1)
					e.weight = int32(len(fc))
				}
				np.entries = append(np.entries, e)
			}
			np.pairs = append(np.pairs, protoPair{coKernel: pr.CoKernel, lo: lo, hi: int32(len(np.entries))})
		}
		np.distinct = distinct
	}
	b.protos = append(b.protos, np)
	b.pairsK += int64(len(np.pairs))
	return len(np.pairs)
}

// Counts reports the (kernel, co-kernel) pairs and matrix entries this
// batch has generated since it was handed out — the actual kernel work
// its worker performed, for virtual-time charging. Commit folds the
// same numbers into the patcher's stats and zeroes them.
func (b *Batch) Counts() (pairs, entries int64) {
	return b.pairsK, b.entriesK
}

// Commit installs the batches' protos into the cache. Replaced protos'
// arenas are retired (recycled at the next Rebuild, so a matrix
// assembled from the old protos stays valid until then).
func (p *Patcher) Commit(batches ...*Batch) {
	for _, b := range batches {
		for _, np := range b.protos {
			if old := p.protos[np.node]; old != nil && old.arena != np.arena {
				p.retired = append(p.retired, old.arena)
			}
			p.protos[np.node] = np
			delete(p.dirty, np.node)
			p.stats.NodesKerneled++
		}
		p.stats.PairsKerneled += b.pairsK
		p.stats.EntriesBuilt += b.entriesK
		b.pairsK, b.entriesK = 0, 0
		p.free = append(p.free, b.free...)
		p.arenas = append(p.arenas, b.created...)
		if b.sa != nil {
			// Scratch chunks hold nothing the protos reference; return
			// them to the process-wide pool immediately.
			b.sa.Reset()
			scratchArenas.Put(b.sa)
		}
		b.protos, b.free, b.created, b.sa = nil, nil, nil, nil
	}
	var reused int64
	for _, a := range p.arenas {
		reused += a.ReusedBytes()
	}
	p.stats.ArenaBytesReused = reused
}

// supersede retires the matrix the last Assemble returned: its
// storage moves to blank, and it reads as empty.
func (p *Patcher) supersede() {
	if p.last != nil {
		p.blank, p.last = refill(p.last), nil
	}
}

// recycleRetired resets retired arenas into the free list. Called by
// MakeBatches, when the previous matrix is being replaced and no live
// matrix references the retired chunks anymore.
func (p *Patcher) recycleRetired() {
	for _, a := range p.retired {
		a.Reset()
		p.free = append(p.free, a)
	}
	p.retired = p.retired[:0]
}

// Assemble builds a Matrix from the cached protos of the given nodes,
// in nodes order, assigning labels exactly as the reference
// NewBuilder(proc) fed the same nodes would. Nodes with
// no cached proto are skipped (callers Commit first). nodes must not
// repeat a node: cube ids are assigned from per-node ordinal blocks, so
// a duplicate occurrence would get a fresh block where the reference
// Builder reuses the first one.
//
// Columns are labeled by position: the k-th column of Cols() (from 0)
// is labeled proc·Stride+k+1, so internal/lshape finds an entry's
// column from its label without hashing.
//
// The matrix is filled into the storage of the one the previous
// Assemble returned, which it supersedes. Rows, entries and columns
// each live in one slab. Columns are interned by position as the
// entries come, each from the first proto entry that holds its cube,
// and the column slab is filled at its exact size afterwards; the
// column table starts at the size the last matrix's columns grew it to.
func (p *Patcher) Assemble(nodes []sop.Var) *Matrix {
	base := int64(p.proc) * Stride
	rowSeq, cubeSeq := base, base

	totalRows, totalEntries := 0, 0
	for _, v := range nodes {
		if np := p.protos[v]; np != nil {
			totalRows += len(np.pairs)
			totalEntries += len(np.entries)
		}
	}

	p.supersede()
	m := p.blank
	if m == nil {
		m = refill(nil)
	}
	p.blank, p.last = nil, m
	s := m.slabs
	m.rows = resize(m.rows, totalRows)
	rowSlab := resize(s.rows, totalRows)
	entrySlab := resize(s.entries, totalEntries)
	// colRefs records, aligned with entrySlab *insertion* order, the
	// position of each entry's column; per-row sorting of Entries does
	// not disturb the per-row multiset, which is all finish needs.
	colRefs := resize(s.colRefs, totalEntries)
	// colSrc[k] is the proto entry column k was interned from; every
	// column comes from one, so totalEntries bounds the list.
	colSrc := s.colSrc[:0]
	if cap(colSrc) < totalEntries {
		colSrc = make([]*protoEntry, 0, totalEntries)
	}
	srcCube := func(k int32) sop.Cube { return colSrc[k].col }
	m.colTab.reset()

	ri, eoff := 0, 0
	for _, v := range nodes {
		np := p.protos[v]
		if np == nil {
			continue
		}
		cubeBase := cubeSeq
		for _, pr := range np.pairs {
			rowSeq++
			row := &rowSlab[ri]
			start := eoff
			for i := pr.lo; i < pr.hi; i++ {
				e := &np.entries[i]
				k := m.colTab.find(e.colHash, e.col, srcCube)
				if k < 0 {
					k = int32(len(colSrc))
					colSrc = append(colSrc, e)
					m.colTab.insert(e.colHash, k)
				}
				if e.ord < 0 {
					continue
				}
				entrySlab[eoff] = Entry{Col: base + int64(k) + 1, CubeID: cubeBase + int64(e.ord) + 1, Weight: int(e.weight)}
				colRefs[eoff] = k
				eoff++
			}
			*row = Row{ID: rowSeq, Node: v, CoKernel: pr.coKernel, Entries: entrySlab[start:eoff:eoff]}
			slicesSortEntries(row.Entries)
			m.rows[ri] = row
			ri++
			m.entries += len(row.Entries)
		}
		cubeSeq = cubeBase + int64(np.distinct)
		if np.distinct > 0 {
			m.maxCubeID = cubeSeq
		}
	}
	if n := len(colSrc); n < len(s.colSrc) {
		clear(s.colSrc[n:]) // the stale tail, when the list was reused
	}
	cols := resize(s.cols, len(colSrc))
	m.cols = resize(m.cols, len(colSrc))
	for k, e := range colSrc {
		cols[k] = Col{ID: base + int64(k) + 1, Cube: e.col, Hash: e.colHash, pos: int32(k)}
		m.cols[k] = &cols[k]
	}
	s.rows, s.entries, s.colRefs, s.colSrc, s.cols = rowSlab, entrySlab, colRefs, colSrc, cols
	// Row ids increase in row order, so finish's RowIDs are sorted.
	m.finish(rowSlab, colRefs[:eoff])
	return m
}

// slicesSortEntries sorts a row's entries by column id.
func slicesSortEntries(entries []Entry) {
	// Rows are typically short; fall through to the generic sort only
	// when an out-of-order pair exists.
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Col > entries[i].Col {
			sortEntrySlice(entries)
			return
		}
	}
}

// Rebuild re-kernels the pending subset of nodes across the given
// number of workers, then assembles the full matrix. The result is
// bit-identical to the reference NewBuilder(proc) fed the same nodes
// in order, regardless of the worker count and of how much of the
// cache was reused. Once ctx is cancelled no further node is kerneled,
// and the partial result must be discarded.
//
// Calling Rebuild supersedes the matrix returned by the previous
// Rebuild on this patcher: its dirty nodes' cube storage is recycled,
// the new matrix is assembled in its slabs, lists, label bands and
// column table, and its dense index's arrays are refilled by the new
// matrix's first Index. The old matrix reads as empty from then on,
// and in the invariants build any access to it panics. A panic in a
// kerneling worker is raised again on the calling goroutine once every
// worker has stopped.
func (p *Patcher) Rebuild(ctx context.Context, nw *network.Network, nodes []sop.Var, workers int) *Matrix {
	start := time.Now()
	pending := p.Pending(nodes)
	p.stats.NodesReused += int64(len(nodes) - len(pending))
	workers = max(min(workers, len(pending)), 1)
	bs := p.MakeBatches(workers)
	fanout.Run(workers, func(w int) {
		for i := w; i < len(pending); i += workers {
			if ctx.Err() != nil {
				return
			}
			fault.Inject(fault.PointKCMRebuild)
			bs[w].Kernel(nw, pending[i])
		}
	})
	p.Commit(bs...)
	m := p.Assemble(nodes)
	p.stats.BuildNS += time.Since(start).Nanoseconds()
	return m
}

// Build constructs the KC matrix of the given nodes of nw with proc-0
// labels: a one-shot Patcher kerneling across GOMAXPROCS workers. The
// build stops kerneling once ctx is cancelled; callers that care must
// check ctx.Err() and discard the partial matrix.
func Build(ctx context.Context, nw *network.Network, nodes []sop.Var, opts kernels.Options) *Matrix {
	return NewPatcher(0, opts).Rebuild(ctx, nw, nodes, runtime.GOMAXPROCS(0))
}
