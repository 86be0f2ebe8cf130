// Package ring implements the consistent-hash ring that shards
// factorization jobs across factord nodes. Each node is hashed onto
// the ring at VNodes positions (virtual nodes smooth the load across
// a small cluster); a job's canonical sha256 key is hashed to a point
// and owned by the first node clockwise from it. Ownership is a pure
// function of the member set, so every node with the same view routes
// a key identically, and adding or removing one node only moves the
// keys in the arcs it gains or loses.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count used when a Ring is built
// with vnodes <= 0. 64 keeps the max/mean load skew within a few
// percent for the 3–10 node clusters this targets.
const DefaultVNodes = 64

// point is one virtual node: a position on the 64-bit ring and the
// node that owns the arc ending there.
type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over a set of node ids.
// Build a new one on every membership change; lookups are lock-free.
type Ring struct {
	points []point
	nodes  []string
}

// hash64 maps a labeled string to a ring position via sha256 — the
// same hash family as the canonical job key, and deterministic across
// processes (no seeded runtime map hash).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// New builds a ring over nodes with the given virtual-node count.
// Duplicate ids collapse; order does not matter. An empty node list
// yields a ring whose Owner always returns "".
func New(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := map[string]bool{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break by node id so equal hashes (vanishingly rare but
		// possible) still order deterministically on every member.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the distinct node ids on the ring, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Owner returns the node owning key — the first virtual node at or
// clockwise after the key's ring position — or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(key)].node
}

// successor returns the index of the first point at or after key's
// hash, wrapping to 0 past the end.
func (r *Ring) successor(key string) int {
	h := hash64("key:" + key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
