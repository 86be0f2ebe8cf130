package cluster

import (
	"strings"
	"testing"
	"time"
)

// TestLeaveTombstone replays the order of messages that used to bring
// a departed node back: after n3's leave reaches n1, a heartbeat n3
// sent before leaving and a roster from a peer that has not seen the
// leave both still carry n3's old incarnation. Neither may re-admit
// it; a restarted n3, with a higher incarnation, may.
func TestLeaveTombstone(t *testing.T) {
	ms := newMembership(Member{ID: "n1", Addr: "a1", Incarnation: 1}, time.Minute, time.Hour, 16)
	n2 := Member{ID: "n2", Addr: "a2", Incarnation: 2}
	n3 := Member{ID: "n3", Addr: "a3", Incarnation: 3}
	ms.markAlive(n2)
	ms.markAlive(n3)
	ring := func() string { return strings.Join(ms.ringNodes(), ",") }
	if got := ring(); got != "n1,n2,n3" {
		t.Fatalf("ring = %s, want n1,n2,n3", got)
	}

	ms.remove(n3)
	if _, ok := ms.markAlive(n3); ok {
		t.Error("a heartbeat from the departed incarnation re-admitted n3")
	}
	ms.merge([]Member{n2, n3})
	if got := ring(); got != "n1,n2" {
		t.Fatalf("after stale contact: ring = %s, want n1,n2", got)
	}

	restarted := Member{ID: "n3", Addr: "a3b", Incarnation: 4}
	ms.merge([]Member{restarted})
	if got := ring(); got != "n1,n2,n3" {
		t.Fatalf("after restart: ring = %s, want n1,n2,n3", got)
	}
	if addr, _ := ms.addrOf("n3"); addr != "a3b" {
		t.Fatalf("restarted n3 at %q, want a3b", addr)
	}
}
