// Package network implements the multi-level Boolean network that
// logic synthesis operates on: a DAG of named internal nodes, each
// carrying a sum-of-products function over primary inputs and other
// nodes, plus primary input and output declarations.
//
// This is the SIS "Boolean network" [Brayton et al. 1987] substrate
// that every algorithm in the paper reads and rewrites.
package network

import (
	"fmt"
	"sort"

	"repro/internal/sop"
)

// Node is one internal node of the network: an output variable and its
// sum-of-products function over other variables.
type Node struct {
	// Out is the variable this node drives.
	Out sop.Var
	// Fn is the node's function in SOP form.
	Fn sop.Expr
}

// Network is a multi-level Boolean network. Nodes are kept in creation
// order so every traversal in the module is deterministic.
type Network struct {
	// Name identifies the circuit (e.g. the benchmark name).
	Name string
	// Names maps variables to identifiers, shared by all expressions.
	Names *sop.Names

	nodes   map[sop.Var]*Node
	order   []sop.Var // creation order of internal nodes
	inputs  []sop.Var
	outputs []sop.Var
	isInput map[sop.Var]bool

	fresh int // counter for generated node names
}

// New returns an empty network with a fresh name table.
func New(name string) *Network {
	return &Network{
		Name:    name,
		Names:   sop.NewNames(),
		nodes:   map[sop.Var]*Node{},
		isInput: map[sop.Var]bool{},
	}
}

// AddInput declares a primary input and returns its variable.
// Declaring the same name twice is idempotent.
func (nw *Network) AddInput(name string) sop.Var {
	v := nw.Names.Intern(name)
	if !nw.isInput[v] {
		nw.isInput[v] = true
		nw.inputs = append(nw.inputs, v)
	}
	return v
}

// AddOutput marks an existing variable as a primary output.
func (nw *Network) AddOutput(name string) sop.Var {
	v := nw.Names.Intern(name)
	nw.outputs = append(nw.outputs, v)
	return v
}

// AddNode creates an internal node named name with function fn and
// returns its variable. It is an error to redefine a node or shadow a
// primary input.
func (nw *Network) AddNode(name string, fn sop.Expr) (sop.Var, error) {
	v := nw.Names.Intern(name)
	if nw.isInput[v] {
		return 0, fmt.Errorf("network: %s: node %q shadows a primary input", nw.Name, name)
	}
	if _, dup := nw.nodes[v]; dup {
		return 0, fmt.Errorf("network: %s: duplicate node %q", nw.Name, name)
	}
	nw.nodes[v] = &Node{Out: v, Fn: fn}
	nw.order = append(nw.order, v)
	return v, nil
}

// MustAddNode is AddNode that panics on error. It is for construction
// of known well-formed networks (tests, generators, the paper's
// worked examples) and must never be reachable from parsed input —
// untrusted paths go through AddNode and surface the error.
func (nw *Network) MustAddNode(name string, fn sop.Expr) sop.Var {
	v, err := nw.AddNode(name, fn)
	if err != nil {
		panic(err)
	}
	return v
}

// NewNodeVar allocates a fresh internal node with a generated name
// (X0, X1, ... with a per-network counter, skipping taken names) and
// function fn. Extraction uses this to materialize kernels.
func (nw *Network) NewNodeVar(fn sop.Expr) sop.Var {
	for {
		name := fmt.Sprintf("[%d]", nw.fresh)
		nw.fresh++
		if _, taken := nw.Names.Lookup(name); taken {
			continue
		}
		v, err := nw.AddNode(name, fn)
		if err == nil {
			return v
		}
	}
}

// Node returns the node driving v, or nil for inputs/undriven vars.
func (nw *Network) Node(v sop.Var) *Node {
	return nw.nodes[v]
}

// SetFn replaces the function of the node driving v. It returns an
// error (rather than panicking — a malformed upload must not take a
// serving process down) when v is not an internal node.
func (nw *Network) SetFn(v sop.Var, fn sop.Expr) error {
	nd, ok := nw.nodes[v]
	if !ok {
		return fmt.Errorf("network: %s: SetFn on non-node %s", nw.Name, nw.Names.Name(v))
	}
	nd.Fn = fn
	return nil
}

// RemoveNode deletes the node driving v. The caller is responsible
// for having rewritten all fanouts first.
func (nw *Network) RemoveNode(v sop.Var) {
	if _, ok := nw.nodes[v]; !ok {
		return
	}
	delete(nw.nodes, v)
	for i, u := range nw.order {
		if u == v {
			nw.order = append(nw.order[:i], nw.order[i+1:]...)
			break
		}
	}
}

// Inputs returns the primary inputs in declaration order (read-only).
func (nw *Network) Inputs() []sop.Var { return nw.inputs }

// Outputs returns the primary outputs in declaration order (read-only).
func (nw *Network) Outputs() []sop.Var { return nw.outputs }

// NodeVars returns the internal node variables in creation order.
// The returned slice is a copy and safe to mutate.
func (nw *Network) NodeVars() []sop.Var {
	out := make([]sop.Var, len(nw.order))
	copy(out, nw.order)
	return out
}

// NumNodes returns the number of internal nodes.
func (nw *Network) NumNodes() int { return len(nw.order) }

// Literals returns the network literal count (LC): the sum of SOP
// literals over all internal nodes — the paper's first-order area
// metric.
func (nw *Network) Literals() int {
	n := 0
	for _, v := range nw.order {
		n += nw.nodes[v].Fn.Literals()
	}
	return n
}

// Fanouts returns, for every variable, the list of nodes whose
// functions read it. Recomputed on call; callers that need it
// repeatedly should cache it per pass.
func (nw *Network) Fanouts() map[sop.Var][]sop.Var {
	fo := map[sop.Var][]sop.Var{}
	for _, v := range nw.order {
		for _, u := range nw.nodes[v].Fn.Support() {
			fo[u] = append(fo[u], v)
		}
	}
	return fo
}

// Clone returns a deep copy of the network sharing the Names table.
// Sharing is safe because all algorithms here only add names, and
// clones used by parallel workers intern no new names concurrently —
// workers that create nodes do so through per-worker offset labels
// (see internal/kcm) and merge sequentially.
func (nw *Network) Clone() *Network {
	cp := &Network{
		Name:    nw.Name,
		Names:   nw.Names,
		nodes:   make(map[sop.Var]*Node, len(nw.nodes)),
		order:   append([]sop.Var(nil), nw.order...),
		inputs:  append([]sop.Var(nil), nw.inputs...),
		outputs: append([]sop.Var(nil), nw.outputs...),
		isInput: make(map[sop.Var]bool, len(nw.isInput)),
		fresh:   nw.fresh,
	}
	for v, nd := range nw.nodes {
		cp.nodes[v] = &Node{Out: v, Fn: nd.Fn.Clone()}
	}
	for v, b := range nw.isInput {
		cp.isInput[v] = b
	}
	return cp
}

// CloneDetached is Clone with a private copy of the Names table, so
// the copy can intern new names concurrently with other clones — the
// replicated-circuit algorithm (§3) gives every worker such a copy.
// Variable identities are preserved (both tables assign the same Var
// to every existing name), so expressions remain valid across copies.
func (nw *Network) CloneDetached() *Network {
	cp := nw.Clone()
	cp.Names = nw.Names.Clone()
	return cp
}

// TopoSort returns the internal nodes in topological order (fanins
// before fanouts). It returns an error if the network has a
// combinational cycle.
func (nw *Network) TopoSort() ([]sop.Var, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[sop.Var]int{}
	var out []sop.Var
	var visit func(v sop.Var) error
	visit = func(v sop.Var) error {
		if nw.isInput[v] || nw.nodes[v] == nil {
			return nil
		}
		switch state[v] {
		case grey:
			return fmt.Errorf("network: %s: combinational cycle through %s", nw.Name, nw.Names.Name(v))
		case black:
			return nil
		}
		state[v] = grey
		for _, u := range nw.nodes[v].Fn.Support() {
			if err := visit(u); err != nil {
				return err
			}
		}
		state[v] = black
		out = append(out, v)
		return nil
	}
	for _, v := range nw.order {
		if err := visit(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CheckDriven verifies every variable read by some node or listed as
// an output is either a primary input or driven by a node.
func (nw *Network) CheckDriven() error {
	driven := func(v sop.Var) bool {
		return nw.isInput[v] || nw.nodes[v] != nil
	}
	for _, v := range nw.order {
		for _, u := range nw.nodes[v].Fn.Support() {
			if !driven(u) {
				return fmt.Errorf("network: %s: node %s reads undriven %s",
					nw.Name, nw.Names.Name(v), nw.Names.Name(u))
			}
		}
	}
	for _, v := range nw.outputs {
		if !driven(v) {
			return fmt.Errorf("network: %s: undriven output %s", nw.Name, nw.Names.Name(v))
		}
	}
	return nil
}

// String summarizes the network.
func (nw *Network) String() string {
	return fmt.Sprintf("%s: %d inputs, %d outputs, %d nodes, %d literals",
		nw.Name, len(nw.inputs), len(nw.outputs), len(nw.order), nw.Literals())
}

// SortedNodeVars returns node variables sorted by name, for stable
// output in dumps regardless of construction order.
func (nw *Network) SortedNodeVars() []sop.Var {
	out := nw.NodeVars()
	sort.Slice(out, func(i, j int) bool {
		return nw.Names.Name(out[i]) < nw.Names.Name(out[j])
	})
	return out
}
