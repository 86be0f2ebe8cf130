// Package partitiontest is a network-partition harness for cluster
// tests. It models the cluster's links at the HTTP-transport layer:
// each node's peer traffic flows through a Transport obtained from a
// shared Net, and Partition splits the registered nodes into groups
// whose cross-group requests fail with a transport error —
// indistinguishable, from the caller's side, from a dropped packet or
// an unreachable host. Heal restores full connectivity.
//
// Blocking happens at the client edge, which covers both directions
// of every exchange because all cluster traffic (heartbeats,
// forwarding, replication) is client-initiated: a node that cannot
// send to a peer also never answers that peer, so both sides see the
// partition.
//
//repolint:test-support
package partitiontest

import (
	"fmt"
	"net/http"
	"sync"
)

// Net is the simulated network: a registry of node addresses plus the
// current partition, shared by every node's Transport.
type Net struct {
	mu sync.Mutex
	// addrToNode is guarded by mu; maps host:port to node id.
	addrToNode map[string]string
	// group is guarded by mu; maps node id to its partition group.
	// Empty map means fully connected.
	group map[string]int
	// dropped is guarded by mu; counts requests blocked per link.
	dropped map[string]int
}

// New returns a fully-connected Net.
func New() *Net {
	return &Net{addrToNode: map[string]string{}, group: map[string]int{}, dropped: map[string]int{}}
}

// Register associates a node id with its listen address. Call once
// per node before any traffic.
func (n *Net) Register(node, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrToNode[addr] = node
}

// Partition splits the nodes into the given groups; traffic between
// different groups is dropped. Nodes not named in any group land in
// an implicit extra group together. Calling Partition again replaces
// the previous split.
func (n *Net) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = map[string]int{}
	for gi, g := range groups {
		for _, id := range g {
			n.group[id] = gi + 1
		}
	}
}

// Heal restores full connectivity.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = map[string]int{}
}

// Dropped reports how many requests were blocked on the from->to
// link since construction.
func (n *Net) Dropped(from, to string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped[from+"->"+to]
}

// allowed decides whether from may reach the node listening on
// toAddr, and records the drop when it may not.
func (n *Net) allowed(from, toAddr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	to, known := n.addrToNode[toAddr]
	if !known {
		// Not a cluster node (external client traffic): never blocked.
		return true
	}
	if n.group[from] == n.group[to] {
		return true
	}
	n.dropped[from+"->"+to]++
	return false
}

// transport is one node's view of the network.
type transport struct {
	net  *Net
	from string
	base http.RoundTripper
}

// Transport returns the RoundTripper node from must use for peer
// traffic (cluster.Config.Transport).
func (n *Net) Transport(from string) http.RoundTripper {
	return &transport{net: n, from: from, base: http.DefaultTransport}
}

// RoundTrip implements http.RoundTripper, failing cross-partition
// requests before they touch the real network.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.net.allowed(t.from, req.URL.Host) {
		return nil, fmt.Errorf("partitiontest: %s -> %s: link down", t.from, req.URL.Host)
	}
	return t.base.RoundTrip(req)
}
