package cluster

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cluster/ring"
)

// memberState is a peer's liveness as judged by this node.
type memberState string

const (
	// stateAlive: heard from first-hand within SuspectAfter.
	stateAlive memberState = "alive"
	// stateSuspect: silent past SuspectAfter but not yet written off.
	// Suspects stay on the ring, so a transient stall does not
	// reshuffle ownership.
	stateSuspect memberState = "suspect"
	// stateDead: silent past DeadAfter. Off the ring, but still
	// probed so a healed partition or restarted process is
	// re-admitted the moment it answers.
	stateDead memberState = "dead"
)

// Member is the wire identity of one node.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Incarnation is a per-process-lifetime number (startup
	// timestamp); a higher incarnation for a known id means the
	// process restarted, and its address and liveness reset.
	Incarnation int64 `json:"incarnation"`
}

// memberInfo is this node's view of one peer.
type memberInfo struct {
	Member
	state     memberState
	lastHeard time.Time
}

// membership tracks the peer set, judges liveness from first-hand
// contact only (gossip spreads existence, never aliveness — a member
// you cannot reach yourself is not alive to you, which is exactly the
// partition semantics forwarding wants), and maintains the consistent
// hash ring over the members it would route to.
type membership struct {
	self         Member
	suspectAfter time.Duration
	deadAfter    time.Duration
	vnodes       int

	// onAlive, when non-nil, is called (outside mu) whenever a peer
	// is first seen or transitions back from dead — the cache-handoff
	// trigger. Set once before any traffic.
	onAlive func(m Member)

	mu sync.Mutex
	// members is guarded by mu; keyed by id, never contains self.
	members map[string]*memberInfo
	// gone is guarded by mu; it maps each departed peer's id to the
	// incarnation that left. A probe or roster still carrying that
	// incarnation (sent before the sender saw the leave) must not
	// re-admit the peer; a higher incarnation, a restart, may.
	gone map[string]int64
	// hashRing is guarded by mu; rebuilt whenever the routable set
	// (self + alive + suspect) changes.
	hashRing *ring.Ring
}

func newMembership(self Member, suspectAfter, deadAfter time.Duration, vnodes int) *membership {
	ms := &membership{
		self:         self,
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		vnodes:       vnodes,
		members:      map[string]*memberInfo{},
		gone:         map[string]int64{},
	}
	ms.mu.Lock()
	ms.rebuildRingLocked()
	ms.mu.Unlock()
	return ms
}

// rebuildRingLocked recomputes the ring over self plus every
// non-dead peer.
//
//repolint:requires mu
func (ms *membership) rebuildRingLocked() {
	nodes := []string{ms.self.ID}
	for id, mi := range ms.members {
		if mi.state != stateDead {
			nodes = append(nodes, id)
		}
	}
	ms.hashRing = ring.New(nodes, ms.vnodes)
}

// markAlive records first-hand contact with a peer (an answered probe
// or a request it originated), admitting it if unknown. It returns the
// peer's Member record when the contact newly (re)admitted it to the
// routable set, so the caller can trigger handoff.
func (ms *membership) markAlive(m Member) (Member, bool) {
	if m.ID == "" || m.ID == ms.self.ID {
		return Member{}, false
	}
	ms.mu.Lock()
	if ms.departedLocked(m) {
		ms.mu.Unlock()
		return Member{}, false
	}
	mi, known := ms.members[m.ID]
	newlyAlive := false
	switch {
	case !known:
		mi = &memberInfo{Member: m}
		ms.members[m.ID] = mi
		newlyAlive = true
	case m.Incarnation > mi.Incarnation:
		// Restarted process: fresh address, fresh cache.
		mi.Member = m
		newlyAlive = true
	case mi.state == stateDead:
		newlyAlive = true
	}
	mi.state = stateAlive
	mi.lastHeard = time.Now()
	if newlyAlive {
		ms.rebuildRingLocked()
	}
	ms.mu.Unlock()
	return m, newlyAlive
}

// merge folds a gossiped roster into the view. Unknown members are
// admitted as suspect — they exist, but this node has no first-hand
// evidence they are reachable from here, so they join the ring without
// being replication targets until a probe succeeds.
func (ms *membership) merge(roster []Member) {
	now := time.Now()
	ms.mu.Lock()
	changed := false
	for _, m := range roster {
		if m.ID == "" || m.ID == ms.self.ID || ms.departedLocked(m) {
			continue
		}
		mi, known := ms.members[m.ID]
		switch {
		case !known:
			ms.members[m.ID] = &memberInfo{Member: m, state: stateSuspect, lastHeard: now}
			changed = true
		case m.Incarnation > mi.Incarnation:
			mi.Member = m
			mi.state = stateSuspect
			mi.lastHeard = now
			changed = true
		}
	}
	if changed {
		ms.rebuildRingLocked()
	}
	ms.mu.Unlock()
}

// remove drops a departing peer (POST /v1/cluster/leave) and keeps a
// tombstone for the incarnation that left.
func (ms *membership) remove(m Member) {
	ms.mu.Lock()
	inc := m.Incarnation
	if mi, ok := ms.members[m.ID]; ok {
		inc = max(inc, mi.Incarnation)
		delete(ms.members, m.ID)
		ms.rebuildRingLocked()
	}
	ms.gone[m.ID] = max(ms.gone[m.ID], inc)
	ms.mu.Unlock()
}

// departedLocked reports whether m is a departed incarnation, and drops
// the tombstone once a higher incarnation of the id arrives.
//
//repolint:requires mu
func (ms *membership) departedLocked(m Member) bool {
	inc, ok := ms.gone[m.ID]
	if !ok {
		return false
	}
	if m.Incarnation <= inc {
		return true
	}
	delete(ms.gone, m.ID)
	return false
}

// sweep applies the suspicion timeouts and reports whether any state
// changed.
func (ms *membership) sweep(now time.Time) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	changed := false
	for _, mi := range ms.members {
		silent := now.Sub(mi.lastHeard)
		switch {
		case mi.state == stateAlive && silent > ms.suspectAfter:
			mi.state = stateSuspect
			changed = true
		case mi.state == stateSuspect && silent > ms.deadAfter:
			mi.state = stateDead
			changed = true
		}
	}
	if changed {
		ms.rebuildRingLocked()
	}
	return changed
}

// owner resolves a canonical job key to the owning node id under the
// current view.
func (ms *membership) owner(key string) string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.hashRing.Owner(key)
}

// ringNodes returns the ids currently on the ring, sorted (stats and
// convergence assertions).
func (ms *membership) ringNodes() []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.hashRing.Nodes()
}

// addrOf resolves a non-dead peer's address.
func (ms *membership) addrOf(id string) (string, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	mi, ok := ms.members[id]
	if !ok || mi.state == stateDead {
		return "", false
	}
	return mi.Addr, true
}

// known returns every peer regardless of state — the probe target set.
func (ms *membership) known() []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]Member, 0, len(ms.members))
	for _, mi := range ms.members {
		out = append(out, mi.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// aliveIDs returns the peers with first-hand liveness — the
// replication target set.
func (ms *membership) aliveIDs() []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var out []string
	for id, mi := range ms.members {
		if mi.state == stateAlive {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// roster is what this node gossips: itself plus every known peer.
// Dead members are included so their addresses survive in the
// cluster's collective memory (probing them is how healing is
// noticed), but liveness never travels — each receiver judges that
// first-hand.
func (ms *membership) roster() []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]Member, 0, len(ms.members)+1)
	out = append(out, ms.self)
	for _, mi := range ms.members {
		out = append(out, mi.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MemberStatus is one peer's view row in stats and
// GET /v1/cluster/members.
type MemberStatus struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Incarnation int64  `json:"incarnation"`
	SilentMS    int64  `json:"silent_ms"`
}

// statusRows snapshots the view for stats.
func (ms *membership) statusRows(now time.Time) []MemberStatus {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]MemberStatus, 0, len(ms.members)+1)
	out = append(out, MemberStatus{
		ID: ms.self.ID, Addr: ms.self.Addr, State: string(stateAlive),
		Incarnation: ms.self.Incarnation,
	})
	for _, mi := range ms.members {
		out = append(out, MemberStatus{
			ID: mi.ID, Addr: mi.Addr, State: string(mi.state),
			Incarnation: mi.Incarnation,
			SilentMS:    now.Sub(mi.lastHeard).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
