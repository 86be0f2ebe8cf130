package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
)

// ---- wire messages ----

// heartbeatMsg is the probe body: the sender's identity plus its full
// roster, which is how membership gossips existence through the mesh.
type heartbeatMsg struct {
	From   Member   `json:"from"`
	Roster []Member `json:"roster"`
}

// rosterMsg answers join and heartbeat: the responder's roster, so
// both directions of every probe exchange views.
type rosterMsg struct {
	Roster []Member `json:"roster"`
}

// replicateMsg carries a replication or handoff batch.
type replicateMsg struct {
	From    string      `json:"from"`
	Entries []wireEntry `json:"entries"`
}

// leaveMsg announces a clean departure.
type leaveMsg struct {
	ID          string `json:"id"`
	Incarnation int64  `json:"incarnation"`
}

// MembersResponse is the body of GET /v1/cluster/members.
type MembersResponse struct {
	Self    string         `json:"self"`
	Ring    []string       `json:"ring"`
	Members []MemberStatus `json:"members"`
}

// ---- server side ----

// Handler wraps the service API with the cluster endpoints.
func (n *Node) Handler(base http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/join", n.handleJoin)
	mux.HandleFunc("POST /v1/cluster/leave", n.handleLeave)
	mux.HandleFunc("POST /v1/cluster/heartbeat", n.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/replicate", n.handleReplicate)
	mux.HandleFunc("GET /v1/cluster/members", n.handleMembers)
	mux.Handle("/", base)
	return mux
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var m Member
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&m); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if m, ok := n.members.markAlive(m); ok {
		n.handoffTo(m)
	}
	writeJSON(w, rosterMsg{Roster: n.members.roster()})
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	var msg leaveMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n.members.remove(Member{ID: msg.ID, Incarnation: msg.Incarnation})
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var msg heartbeatMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n.members.merge(msg.Roster)
	if m, ok := n.members.markAlive(msg.From); ok {
		n.handoffTo(m)
	}
	writeJSON(w, rosterMsg{Roster: n.members.roster()})
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var msg replicateMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&msg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n.applyReplicated(msg.Entries)
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, MembersResponse{
		Self:    n.cfg.NodeID,
		Ring:    n.members.ringNodes(),
		Members: n.members.statusRows(time.Now()),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// ---- gossip loops ----

// joinSeeds contacts each configured seed once; failures are retried
// by the heartbeat loop while this node remains solo.
func (n *Node) joinSeeds(ctx context.Context) {
	for _, addr := range n.cfg.Seeds {
		if addr == "" || addr == n.cfg.Addr {
			continue
		}
		roster, err := n.postJoin(ctx, addr)
		if err != nil {
			continue
		}
		n.members.merge(roster)
	}
}

// heartbeatLoop probes every known peer each interval, sweeps the
// suspicion timeouts, and keeps retrying the seeds while the node has
// no peers at all (a node started before its seeds eventually finds
// them).
func (n *Node) heartbeatLoop(ctx context.Context) {
	tick := time.NewTicker(n.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			// A panic inside one round (an injected cluster.heartbeat
			// fault) must not kill the failure detector for good.
			core.Guard("cluster", -1, nil, func() { n.probeRound(ctx) })
		}
	}
}

// probeRound is one heartbeat iteration.
func (n *Node) probeRound(ctx context.Context) {
	if n.leaving.Load() {
		return
	}
	if err := fault.InjectErr(fault.PointClusterHeartbeat); err != nil {
		// A lost probe round: peers miss one heartbeat from us and we
		// learn nothing this tick; the suspicion timeouts absorb it.
		n.members.sweep(time.Now())
		return
	}
	known := n.members.known()
	if len(known) == 0 && len(n.cfg.Seeds) > 0 {
		n.joinSeeds(ctx)
		known = n.members.known()
	}
	msg := heartbeatMsg{From: n.selfMember(), Roster: n.members.roster()}
	for _, m := range known {
		n.heartbeatsSent.Add(1)
		roster, err := n.postHeartbeat(ctx, m.Addr, msg)
		if err != nil {
			n.heartbeatFailures.Add(1)
			continue
		}
		if m, ok := n.members.markAlive(m); ok {
			n.handoffTo(m)
		}
		n.members.merge(roster)
	}
	n.members.sweep(time.Now())
}

func (n *Node) selfMember() Member { return n.members.self }

// ---- client side ----

func (n *Node) postPeer(ctx context.Context, addr, path string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: %s%s: %s", addr, path, resp.Status)
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
}

func (n *Node) postJoin(ctx context.Context, addr string) ([]Member, error) {
	var out rosterMsg
	if err := n.postPeer(ctx, addr, "/v1/cluster/join", n.selfMember(), &out); err != nil {
		return nil, err
	}
	return out.Roster, nil
}

func (n *Node) postHeartbeat(ctx context.Context, addr string, msg heartbeatMsg) ([]Member, error) {
	var out rosterMsg
	if err := n.postPeer(ctx, addr, "/v1/cluster/heartbeat", msg, &out); err != nil {
		return nil, err
	}
	return out.Roster, nil
}

func (n *Node) postReplicate(ctx context.Context, addr string, entries []wireEntry) error {
	return n.postPeer(ctx, addr, "/v1/cluster/replicate",
		replicateMsg{From: n.cfg.NodeID, Entries: entries}, nil)
}

func (n *Node) postLeave(ctx context.Context, addr string) {
	n.postPeer(ctx, addr, "/v1/cluster/leave", leaveMsg{ID: n.cfg.NodeID, Incarnation: n.members.self.Incarnation}, nil)
}

// postJob forwards a registered job to its owner and returns the
// remote job id.
func (n *Node) postJob(ctx context.Context, addr string, j *service.Job) (string, error) {
	var circuit bytes.Buffer
	if err := blif.Write(&circuit, j.Network()); err != nil {
		return "", err
	}
	body, err := json.Marshal(service.SubmitRequest{
		Name:    j.Name,
		Format:  "blif",
		Circuit: circuit.String(),
		Spec:    j.Spec,
	})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ForwardedHeader, n.cfg.NodeID)
	resp, err := n.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return "", fmt.Errorf("cluster: %s rejected forwarded job: %s", addr, resp.Status)
	}
	var sub service.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", err
	}
	return sub.ID, nil
}

// getStatus reads a remote job's status, asking the owner to hold the
// request until the job is terminal or wait passes.
func (n *Node) getStatus(ctx context.Context, addr, rid string, wait time.Duration) (*service.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/v1/jobs/"+rid+"?wait="+wait.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: status %s/%s: %s", addr, rid, resp.Status)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// fetchResult downloads the factored network of a DONE remote job and
// rebuilds the local Result from it plus the status metrics.
func (n *Node) fetchResult(ctx context.Context, addr, rid string, st *service.Status) (*service.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/v1/jobs/"+rid+"/result?format=blif", nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: result %s/%s: %s", addr, rid, resp.Status)
	}
	nw, err := blif.Read(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return &service.Result{
		Run: core.RunResult{
			Algorithm:   st.Algorithm,
			LC:          st.LC,
			Extracted:   st.Extracted,
			Calls:       st.Calls,
			VirtualTime: st.VirtualTime,
			TotalWork:   st.TotalWork,
			WallClock:   time.Duration(st.WallMS) * time.Millisecond,
		},
		Net:      nw,
		Verified: st.Verified,
		Degraded: st.Degraded,
	}, nil
}

// cancelRemote propagates a local cancel to the owner, best effort.
func (n *Node) cancelRemote(addr, rid string) {
	ctx, cancel := context.WithTimeout(n.ctx, n.cfg.HTTPTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		"http://"+addr+"/v1/jobs/"+rid, nil)
	if err != nil {
		return
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}
