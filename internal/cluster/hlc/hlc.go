// Package hlc implements hybrid logical clocks (Kulkarni et al.,
// "Logical Physical Clocks and Consistent Snapshots in Globally
// Distributed Databases"): timestamps that track physical time closely
// while preserving the happens-before ordering of message exchange.
// The cluster's replicated result cache stamps every entry with an HLC
// timestamp so concurrent writes to the same canonical key resolve by
// last-writer-wins deterministically on every replica, regardless of
// delivery order.
package hlc

import (
	"fmt"
	"sync"
	"time"
)

// Timestamp is one hybrid-logical-clock reading. Wall is physical
// nanoseconds, Logical breaks ties between causally ordered events in
// the same wall tick, and Node breaks the remaining ties so any two
// distinct timestamps are totally ordered across the cluster.
type Timestamp struct {
	Wall    int64  `json:"wall"`
	Logical int32  `json:"logical"`
	Node    string `json:"node,omitempty"`
}

// Compare orders timestamps: -1 when t < o, 0 when equal, +1 when
// t > o. Wall dominates, then Logical, then Node — a total order, so
// two replicas applying the same set of writes converge to the same
// winner.
func (t Timestamp) Compare(o Timestamp) int {
	switch {
	case t.Wall != o.Wall:
		if t.Wall < o.Wall {
			return -1
		}
		return 1
	case t.Logical != o.Logical:
		if t.Logical < o.Logical {
			return -1
		}
		return 1
	case t.Node != o.Node:
		if t.Node < o.Node {
			return -1
		}
		return 1
	}
	return 0
}

// Before reports whether t orders strictly before o.
func (t Timestamp) Before(o Timestamp) bool { return t.Compare(o) < 0 }

// String renders the timestamp for logs and debugging.
func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%d@%s", t.Wall, t.Logical, t.Node)
}

// Clock is one node's hybrid logical clock. Now and Observe are safe
// for concurrent use.
type Clock struct {
	node string
	// now returns physical time; tests may replace it.
	now func() time.Time

	mu sync.Mutex
	// wall is guarded by mu: the largest wall value issued or observed.
	wall int64
	// logical is guarded by mu: the tie-break counter within wall.
	logical int32
}

// New returns a clock stamping timestamps with the given node id,
// driven by the system wall clock.
func New(node string) *Clock {
	return &Clock{node: node, now: time.Now}
}

// Now issues the next timestamp: physical time when it has advanced
// past everything seen, otherwise the previous wall value with the
// logical counter bumped. Successive calls are strictly increasing.
func (c *Clock) Now() Timestamp {
	pt := c.now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	if pt > c.wall {
		c.wall = pt
		c.logical = 0
	} else {
		c.logical++
	}
	return Timestamp{Wall: c.wall, Logical: c.logical, Node: c.node}
}

// Observe merges a remote timestamp into the clock (called on every
// received replication entry) and returns a fresh local timestamp that
// orders after both the remote event and every local one — the
// happens-before guarantee that makes LWW converge sensibly.
func (c *Clock) Observe(remote Timestamp) Timestamp {
	pt := c.now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case pt > c.wall && pt > remote.Wall:
		c.wall = pt
		c.logical = 0
	case remote.Wall > c.wall:
		c.wall = remote.Wall
		c.logical = remote.Logical + 1
	case c.wall > remote.Wall:
		c.logical++
	default: // equal walls
		if remote.Logical > c.logical {
			c.logical = remote.Logical
		}
		c.logical++
	}
	return Timestamp{Wall: c.wall, Logical: c.logical, Node: c.node}
}
