package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sop"
)

// reference factors BLIF text in process exactly as a default job
// would, and serializes the result.
func reference(text string) (string, error) {
	nw, err := blif.Read(strings.NewReader(text))
	if err != nil {
		return "", fmt.Errorf("parsing a generated circuit: %w", err)
	}
	core.Sequential(context.Background(), nw, service.Spec{}.WithDefaults().CoreOptions())
	return blifText(nw), nil
}

// canonical renders a BLIF network with every variable spelled by name
// and every cover sorted. BLIF lists a node's support in variable-id
// order, and a cluster node that takes a result from a peer re-parses
// its BLIF, which renumbers the variables; canonical form is equal for
// two texts exactly when they describe the same nodes with the same
// covers.
func canonical(text string) (string, error) {
	nw, err := blif.Read(strings.NewReader(text))
	if err != nil {
		return "", fmt.Errorf("parsing a service result: %w", err)
	}
	var sb strings.Builder
	writeVars := func(label string, vs []sop.Var) {
		sb.WriteString(label)
		for _, v := range vs {
			sb.WriteString(" " + nw.Names.Name(v))
		}
		sb.WriteString("\n")
	}
	writeVars("inputs", nw.Inputs())
	writeVars("outputs", nw.Outputs())
	for _, v := range nw.NodeVars() {
		var cubes []string
		for _, c := range nw.Node(v).Fn.Cubes() {
			lits := make([]string, len(c))
			for i, l := range c {
				lits[i] = nw.Names.Name(l.Var())
				if l.IsNeg() {
					lits[i] = "!" + lits[i]
				}
			}
			sort.Strings(lits)
			cubes = append(cubes, strings.Join(lits, "&"))
		}
		sort.Strings(cubes)
		fmt.Fprintf(&sb, "%s = %s\n", nw.Names.Name(v), strings.Join(cubes, " | "))
	}
	return sb.String(), nil
}

// checker compares service results with in-process references. It is
// safe for concurrent use by the client goroutines.
type checker struct {
	mu sync.Mutex
	// refs is guarded by mu.
	refs map[int]*refEntry
	// exact, renumbered and mismatched count the results compared; all
	// are guarded by mu.
	exact, renumbered, mismatched int
}

type refEntry struct {
	text, canon string
	// matched holds result texts already found equal to the reference,
	// so each distinct text is parsed once.
	matched map[string]bool
}

func newChecker() *checker { return &checker{refs: map[int]*refEntry{}} }

// add registers input idx's reference result.
func (ck *checker) add(idx int, ref string) error {
	canon, err := canonical(ref)
	if err != nil {
		return err
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.refs[idx] = &refEntry{text: ref, canon: canon, matched: map[string]bool{}}
	return nil
}

// has reports whether input idx has a reference.
func (ck *checker) has(idx int) bool {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.refs[idx] != nil
}

// check compares one result for input idx with its reference.
func (ck *checker) check(idx int, got string) bool {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ref := ck.refs[idx]
	switch {
	case got == ref.text:
		ck.exact++
		return true
	case ref.matched[got]:
		ck.renumbered++
		return true
	}
	canon, err := canonical(got)
	if err != nil || canon != ref.canon {
		ck.mismatched++
		return false
	}
	ref.matched[got] = true
	ck.renumbered++
	return true
}

func (ck *checker) summary() string {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return fmt.Sprintf("results compared with core.Sequential: %d byte-identical, %d identical after variable renumbering, %d mismatched",
		ck.exact, ck.renumbered, ck.mismatched)
}
