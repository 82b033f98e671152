package serve

// Cluster mode: the serve-side glue over internal/cluster. A static
// peer set forms a consistent-hash ring over the content-addressed
// routing key of each job; a job submitted to any node is forwarded to
// the key's owner (so the owner's profile/front caches concentrate the
// hits), heartbeats demote unresponsive peers alive → suspect → dead,
// and a lightweight job-ownership record — replicated to a ring
// successor at admission — lets the survivors re-admit a dead node's
// unfinished jobs through the normal reserve() admission gate, reusing
// the interrupted-state attempt budget.
//
// Degradation is graceful by construction: with no peers EnableCluster
// is a complete no-op (a one-node "cluster" is byte-identical to the
// plain daemon, /metrics included), a failed forward falls back to
// local compute (counted, never fatal), and a draining node hands its
// queue to live owners but finishes locally when nobody can take it.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mupod/internal/cluster"
	"mupod/internal/cluster/httpc"
	"mupod/internal/fault"
	"mupod/internal/kernels"
	"mupod/internal/obs"
)

// Cross-node headers. forwardedHeader carries the origin node's name on
// any hop (loop prevention: a request bearing it is never re-forwarded,
// so the worst routing disagreement costs one extra hop, not a cycle);
// deadlineHeader mirrors the sender's context deadline so the owner's
// logs can attribute a cut-short exchange.
const (
	forwardedHeader = "X-Mupod-Forwarded"
	deadlineHeader  = "X-Mupod-Deadline"
)

// ownedFile is the backup-side replica log of peer-owned jobs under
// DataDir, replayed and compacted at EnableCluster.
const ownedFile = "cluster-owned.jsonl"

// clusterRoutes extends the RED route set when cluster mode is on; a
// single-node daemon never registers them, keeping its /metrics page
// byte-identical.
var clusterRoutes = []string{
	"/cluster/health",
	"/cluster/owned",
	"/cluster/handoff",
}

// relayResponse copies a peer's reply (from a forwarded submit or a
// proxied poll) back to the client.
func relayResponse(w http.ResponseWriter, resp *httpc.Response) {
	for _, h := range []string{"Content-Type", "Location", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(resp.Body) //nolint:errcheck
}

// ClusterConfig wires a Manager into a peer group.
type ClusterConfig struct {
	// Self is this node's name. Required; it prefixes job IDs
	// ("a-j-000001") so IDs stay unique cluster-wide across handoffs.
	Self string
	// Peers is the full static member list (self included or not —
	// self is filtered). With no remote peers EnableCluster no-ops.
	Peers []cluster.Peer
	// HeartbeatInterval is the per-peer probe cadence (default 1s).
	HeartbeatInterval time.Duration
	// SuspectAfter/DeadAfter are consecutive-miss thresholds
	// (defaults 2 and 5).
	SuspectAfter int
	DeadAfter    int
	// ForwardTimeout bounds each forwarded-submit attempt (default 10s).
	ForwardTimeout time.Duration
	// ForwardRetries re-attempts a forward on transient failure before
	// falling back to local compute (default 1).
	ForwardRetries int
	// Replicas is the ring vnode count per node (default
	// cluster.DefaultReplicas).
	Replicas int
	// HTTPClient overrides the transport (tests); nil uses the shared
	// pooled httpc transport.
	HTTPClient *http.Client
}

// ownedMsg is the replication wire format (POST /cluster/owned) and the
// cluster-owned.jsonl line format: a put upserts the origin's ownership
// record for a job, a del tombstones it when the job reaches a terminal
// state.
type ownedMsg struct {
	Op      string      `json:"op"` // "put" | "del"
	ID      string      `json:"id"`
	Origin  string      `json:"origin,omitempty"`
	Attempt int         `json:"attempt,omitempty"`
	Req     *JobRequest `json:"req,omitempty"`
}

// handoffMsg asks a peer to re-admit a job under its existing ID
// (POST /cluster/handoff) — the drain path's explicit handoff.
type handoffMsg struct {
	ID      string     `json:"id"`
	Attempt int        `json:"attempt"`
	Req     JobRequest `json:"req"`
}

// Cluster is a Manager's cluster-mode state. Obtain one from
// Manager.EnableCluster; nil means single-node.
type Cluster struct {
	m      *Manager
	cfg    ClusterConfig
	ring   *cluster.Ring
	member *cluster.Membership
	client *httpc.Client

	ctx    context.Context
	cancel context.CancelFunc

	// owned is the backup-side replica table: records for jobs whose
	// origin is a peer, to be re-admitted here if that peer dies.
	owned *ownStore

	// backups maps local job ID → the peer holding its ownership
	// record ("" when nobody alive could take it at admission).
	mu      sync.Mutex
	backups map[string]string

	repc        chan repEvent // ordered replication queue (one sender)
	repWG       sync.WaitGroup
	draining    atomic.Bool
	rebalancing atomic.Int32
	stopOnce    sync.Once

	hbOK            *obs.Counter
	hbMiss          *obs.Counter
	forwardOK       *obs.Counter
	forwardFallback *obs.Counter
	forwardedIn     *obs.Counter
	handoffFailover *obs.Counter
	handoffDrain    *obs.Counter
	repDropped      *obs.Counter
}

type repEvent struct {
	peer string
	msg  ownedMsg
}

// validNodeName bounds node names like tenant names: they appear in job
// IDs, URLs and metric labels.
func validNodeName(name string) error {
	if name == "" {
		return errors.New("serve: cluster node name is required")
	}
	if strings.Contains(name, "-j-") {
		return fmt.Errorf("serve: cluster node name %q may not contain the job-ID separator \"-j-\"", name)
	}
	if err := ValidTenant(name); err != nil {
		return fmt.Errorf("serve: invalid cluster node name %q (want [A-Za-z0-9._-], max 64 bytes)", name)
	}
	return nil
}

// RouteKey computes a job request's content-addressed routing key: a
// hash over the request with everything that cannot change the result
// cleared (tenant, parallelism knobs, kernel policies) — the same
// normalization the profile cache key applies, so requests that would
// share a cached profile also share an owner node.
func RouteKey(req *JobRequest) string {
	r := *req
	r.Tenant = ""
	r.Workers = 0
	r.Kernel, r.IntraWorkers = "", 0
	r.Profile.Workers = 0
	r.Profile.Kernel = kernels.Policy{}
	r.Search.Workers = 0
	r.Search.Kernel = kernels.Policy{}
	b, err := json.Marshal(&r)
	if err != nil {
		// Unmarshalable requests never pass Validate; route them all to
		// one bucket rather than fail.
		b = []byte(r.Model + "|" + r.Network)
	}
	sum := sha256.Sum256(b)
	return "rk:" + hex.EncodeToString(sum[:16])
}

// EnableCluster switches the manager into cluster mode. Call it after
// New and before NewHandler (the handler mounts the /cluster routes
// only when a cluster is active). With no remote peers it returns
// (nil, nil) and changes nothing — a one-node cluster IS the plain
// daemon. Heartbeat probing starts immediately.
func (m *Manager) EnableCluster(cfg ClusterConfig) (*Cluster, error) {
	if m.clusterPtr.Load() != nil {
		return nil, errors.New("serve: cluster mode already enabled")
	}
	var peers []cluster.Peer
	for _, p := range cfg.Peers {
		if p.Name == cfg.Self {
			continue
		}
		if err := validNodeName(p.Name); err != nil {
			return nil, err
		}
		if p.URL == "" {
			return nil, fmt.Errorf("serve: cluster peer %q has no URL", p.Name)
		}
		peers = append(peers, cluster.Peer{Name: p.Name, URL: strings.TrimSuffix(p.URL, "/")})
	}
	if len(peers) == 0 {
		return nil, nil // single node: stay byte-identical to today's daemon
	}
	if err := validNodeName(cfg.Self); err != nil {
		return nil, err
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 10 * time.Second
	}
	if cfg.ForwardRetries < 0 {
		cfg.ForwardRetries = 0
	} else if cfg.ForwardRetries == 0 {
		cfg.ForwardRetries = 1
	}

	names := make([]string, 0, len(peers)+1)
	names = append(names, cfg.Self)
	for _, p := range peers {
		names = append(names, p.Name)
	}
	c := &Cluster{
		m:       m,
		cfg:     cfg,
		ring:    cluster.NewRing(names, cfg.Replicas),
		backups: make(map[string]string),
		repc:    make(chan repEvent, 1024),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	if cfg.HTTPClient != nil {
		c.client = httpc.Wrap(cfg.HTTPClient, cfg.ForwardTimeout, cfg.ForwardRetries)
	} else {
		c.client = httpc.New(cfg.ForwardTimeout, cfg.ForwardRetries)
	}

	var err error
	if c.owned, err = openOwnStore(m.cfg.DataDir, m.cfg.NoFsync, m.cfg.Logf); err != nil {
		return nil, err
	}

	c.registerMetrics(names)
	hb := cfg.HeartbeatInterval
	if hb <= 0 {
		hb = time.Second
	}
	var probeClient *httpc.Client
	if cfg.HTTPClient != nil {
		probeClient = httpc.Wrap(cfg.HTTPClient, hb, 0)
	}
	c.member = cluster.NewMembership(cluster.MembershipConfig{
		Self:         cfg.Self,
		Peers:        peers,
		Interval:     hb,
		SuspectAfter: cfg.SuspectAfter,
		DeadAfter:    cfg.DeadAfter,
		Client:       probeClient,
		OnPeerDead:   c.onPeerDead,
		OnPeerAlive: func(name string) {
			m.cfg.Logf("serve: cluster peer %s is alive again", name)
		},
		OnProbe: func(peer string, ok bool) {
			if ok {
				c.hbOK.Inc()
			} else {
				c.hbMiss.Inc()
			}
		},
	})

	m.idPrefix = cfg.Self + "-"
	m.clusterPtr.Store(c)
	c.repWG.Add(1)
	go c.replicationSender()
	c.member.Start(c.ctx)
	m.cfg.Logf("serve: cluster mode enabled (node=%s peers=%d ring=%s)", cfg.Self, len(peers), c.ring)
	return c, nil
}

// Cluster returns the manager's cluster state (nil in single-node
// mode).
func (m *Manager) Cluster() *Cluster { return m.clusterPtr.Load() }

// clusterHook returns the cluster for replication side effects — nil
// after Crash, so a simulated kill -9 sends nothing, exactly like the
// real thing.
func (m *Manager) clusterHook() *Cluster {
	if m.crashed.Load() {
		return nil
	}
	return m.clusterPtr.Load()
}

// registerMetrics attaches the cluster metric families. Only reached
// with at least one remote peer, so a single-node /metrics page stays
// byte-identical.
func (c *Cluster) registerMetrics(names []string) {
	r := c.m.metrics.Registry()
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		if n == c.cfg.Self {
			continue
		}
		n := n
		r.GaugeFunc("mupod_cluster_peer_state",
			"Peer failure-detector state (0 alive, 1 suspect, 2 dead, 3 draining).", func() float64 {
				return float64(c.member.State(n))
			}, "peer", n)
	}
	c.hbOK = r.Counter("mupod_cluster_heartbeats_total", "Heartbeat probes, by result.", "result", "ok")
	c.hbMiss = r.Counter("mupod_cluster_heartbeats_total", "Heartbeat probes, by result.", "result", "miss")
	c.forwardOK = r.Counter("mupod_cluster_forwards_total", "Job submissions routed to their owner node, by result.", "result", "forwarded")
	c.forwardFallback = r.Counter("mupod_cluster_forwards_total", "Job submissions routed to their owner node, by result.", "result", "fallback_local")
	c.forwardedIn = r.Counter("mupod_cluster_forwarded_in_total", "Forwarded submissions received from peers.")
	c.handoffFailover = r.Counter("mupod_cluster_handoffs_total", "Jobs re-admitted from another node, by kind.", "kind", "failover")
	c.handoffDrain = r.Counter("mupod_cluster_handoffs_total", "Jobs re-admitted from another node, by kind.", "kind", "drain")
	c.repDropped = r.Counter("mupod_cluster_replication_dropped_total", "Ownership-record replication events dropped (queue overflow or send failure).")
	r.GaugeFunc("mupod_cluster_owned_records", "Peer-owned job records replicated to this node.", func() float64 {
		return float64(c.owned.count())
	})
}

// Self returns this node's name.
func (c *Cluster) Self() string { return c.cfg.Self }

// Owner returns the name of the node a request would route to right
// now, given current liveness (test and diagnostics hook).
func (c *Cluster) Owner(req *JobRequest) string {
	return c.ring.OwnerAmong(RouteKey(req), c.aliveFor)
}

// OwnedCount returns how many peer-owned records this node holds.
func (c *Cluster) OwnedCount() int { return c.owned.count() }

// Handoffs returns the total jobs this node re-admitted from others.
func (c *Cluster) Handoffs() uint64 {
	return c.handoffFailover.Value() + c.handoffDrain.Value()
}

// ForwardsForwarded / ForwardsFallback expose the forward counters.
func (c *Cluster) ForwardsForwarded() uint64 { return c.forwardOK.Value() }
func (c *Cluster) ForwardsFallback() uint64  { return c.forwardFallback.Value() }

// ForwardedIn returns how many forwarded submissions this node served.
func (c *Cluster) ForwardedIn() uint64 { return c.forwardedIn.Value() }

// QuorumLost reports whether at least half the cluster is dead — the
// /readyz machine-readable reason for routing traffic elsewhere.
func (c *Cluster) QuorumLost() bool {
	return 2*c.member.DeadCount() >= len(c.ring.Nodes())
}

// Rebalancing reports whether a peer-death handoff scan is in flight.
func (c *Cluster) Rebalancing() bool { return c.rebalancing.Load() > 0 }

// Stop halts heartbeats and the replication sender. Idempotent; called
// by Manager.Shutdown and Crash.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		c.cancel()
		c.member.Stop()
		c.repWG.Wait()
		c.owned.close()
	})
}

// aliveFor is the liveness predicate routing uses: peers must be
// heartbeat-alive, and self stops counting once draining (so a
// draining node routes new and stolen work to others).
func (c *Cluster) aliveFor(name string) bool {
	if name == c.cfg.Self {
		return !c.draining.Load() && !c.m.Draining()
	}
	return c.member.Alive(name)
}

// maybeForward routes one decoded submission: nil means "admit
// locally" (self owns the key, nobody alive owns it, or the forward
// failed and fell back — counted). Otherwise the owner's response is
// returned for relay.
func (c *Cluster) maybeForward(ctx context.Context, req *JobRequest, forcePareto bool) *httpc.Response {
	owner := c.ring.OwnerAmong(RouteKey(req), c.aliveFor)
	if owner == "" || owner == c.cfg.Self {
		return nil
	}
	url := c.member.PeerURL(owner)
	if url == "" {
		return nil
	}
	if err := fault.Hit(ctx, "cluster.forward"); err != nil {
		c.forwardFallback.Inc()
		c.m.cfg.Logf("serve: cluster forward to %s failed (%v); computing locally", owner, err)
		return nil
	}
	path := "/v1/jobs"
	if forcePareto || req.Pareto != nil {
		path = "/pareto"
	}
	body, err := json.Marshal(req)
	if err != nil {
		c.forwardFallback.Inc()
		return nil
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	hdr.Set(forwardedHeader, c.cfg.Self)
	if req.Tenant != "" {
		hdr.Set(tenantHeader, req.Tenant)
	}
	if dl, ok := ctx.Deadline(); ok {
		hdr.Set(deadlineHeader, dl.UTC().Format(time.RFC3339Nano))
	}
	resp, err := c.client.Do(ctx, http.MethodPost, url+path, body, hdr)
	if err != nil {
		c.forwardFallback.Inc()
		c.m.cfg.Logf("serve: cluster forward to %s failed (%v); computing locally", owner, err)
		return nil
	}
	c.forwardOK.Inc()
	return resp
}

// proxyGet fetches a job from its origin node when the ID's prefix
// names a reachable peer — so a client can poll any node for a job the
// cluster placed elsewhere. Returns nil to fall through to local 404.
func (c *Cluster) proxyGet(ctx context.Context, id string) *httpc.Response {
	origin := originOf(id)
	if origin == "" || origin == c.cfg.Self {
		return nil
	}
	if !c.member.Reachable(origin) {
		return nil
	}
	url := c.member.PeerURL(origin)
	if url == "" {
		return nil
	}
	hdr := http.Header{}
	hdr.Set(forwardedHeader, c.cfg.Self)
	resp, err := c.client.Do(ctx, http.MethodGet, url+"/v1/jobs/"+id, nil, hdr)
	if err != nil {
		return nil
	}
	return resp
}

// originOf extracts the node prefix of a cluster job ID ("a-j-000001"
// → "a"; "" for unprefixed single-node IDs).
func originOf(id string) string {
	i := strings.LastIndex(id, "-j-")
	if i <= 0 {
		return ""
	}
	return id[:i]
}

// --- ownership replication (origin side) ---

// noteAdmitted replicates a fresh job's ownership record to its backup:
// the first alive ring successor of the job's key that is not self.
func (c *Cluster) noteAdmitted(j *Job) {
	backup := c.pickBackup(RouteKey(&j.req))
	c.mu.Lock()
	c.backups[j.id] = backup
	c.mu.Unlock()
	if backup == "" {
		return // degraded: nobody alive to back us up; local journal still covers a restart
	}
	c.replicate(backup, ownedMsg{Op: "put", ID: j.id, Origin: c.cfg.Self, Attempt: j.Attempt(), Req: &j.req})
}

// noteAttempt refreshes the replicated attempt count when a run starts,
// so a handoff re-admission resumes the same attempt budget.
func (c *Cluster) noteAttempt(j *Job, attempt int) {
	backup := c.backupFor(j.id)
	if backup == "" {
		return
	}
	c.replicate(backup, ownedMsg{Op: "put", ID: j.id, Origin: c.cfg.Self, Attempt: attempt, Req: &j.req})
}

// noteTerminal tombstones the replicated record once the job cannot
// need a handoff anymore.
func (c *Cluster) noteTerminal(id string) {
	backup := c.backupFor(id)
	c.mu.Lock()
	delete(c.backups, id)
	c.mu.Unlock()
	if backup == "" {
		return
	}
	c.replicate(backup, ownedMsg{Op: "del", ID: id, Origin: c.cfg.Self})
}

func (c *Cluster) backupFor(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backups[id]
}

// pickBackup chooses the record holder for a key: walking the key's
// successor list keeps the record exactly where the key's ownership
// lands if this node dies, so the inheritor already has it.
func (c *Cluster) pickBackup(key string) string {
	for _, n := range c.ring.Successors(key, len(c.ring.Nodes())) {
		if n != c.cfg.Self && c.member.Alive(n) {
			return n
		}
	}
	return ""
}

// replicate enqueues one ordered replication event; a full queue drops
// the event (counted) rather than ever blocking admission.
func (c *Cluster) replicate(peer string, msg ownedMsg) {
	select {
	case c.repc <- repEvent{peer: peer, msg: msg}:
	default:
		c.repDropped.Inc()
	}
}

// replicationSender drains the replication queue in order — one sender,
// so a job's put can never be overtaken by its del.
func (c *Cluster) replicationSender() {
	defer c.repWG.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case ev := <-c.repc:
			url := c.member.PeerURL(ev.peer)
			if url == "" {
				continue
			}
			body, err := json.Marshal(ev.msg)
			if err != nil {
				continue
			}
			hdr := http.Header{}
			hdr.Set("Content-Type", "application/json")
			if resp, err := c.client.Do(c.ctx, http.MethodPost, url+"/cluster/owned", body, hdr); err != nil || !resp.OK() {
				c.repDropped.Inc()
			}
		}
	}
}

// --- handoff (backup side) ---

// onPeerDead re-admits the dead peer's replicated jobs locally. Runs
// off the probe goroutine; the scan is async and visible to /readyz as
// "cluster rebalance in progress" until it settles.
func (c *Cluster) onPeerDead(name string) {
	c.m.cfg.Logf("serve: cluster peer %s declared dead", name)
	recs := c.owned.byOrigin(name)
	if len(recs) == 0 {
		return
	}
	c.rebalancing.Add(1)
	c.repWG.Add(1)
	go func() {
		defer c.repWG.Done()
		defer c.rebalancing.Add(-1)
		for _, rec := range recs {
			c.readmitRecord(rec)
		}
	}()
}

// readmitRecord pushes one inherited job through the normal admission
// gate, backing off while the queue is full. It gives up if the origin
// comes back (the record stays for the next failure), the manager
// drains, or the retry budget runs out.
func (c *Cluster) readmitRecord(rec ownedMsg) {
	backoff := 50 * time.Millisecond
	for i := 0; i < 20; i++ {
		if c.ctx.Err() != nil {
			return
		}
		if c.member.State(rec.Origin) != cluster.PeerDead {
			return // origin resurrected; it still owns the job
		}
		_, err := c.m.Readmit(rec.ID, *rec.Req, rec.Attempt)
		switch {
		case err == nil:
			c.handoffFailover.Inc()
			c.owned.del(rec.ID)
			c.m.cfg.Logf("serve: cluster handoff: re-admitted job %s from dead peer %s (attempt %d)", rec.ID, rec.Origin, rec.Attempt)
			return
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-c.ctx.Done():
				t.Stop()
				return
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		case errors.Is(err, ErrDraining):
			return
		default:
			c.m.cfg.Logf("serve: cluster handoff: dropping record for job %s: %v", rec.ID, err)
			c.owned.del(rec.ID)
			return
		}
	}
	c.m.cfg.Logf("serve: cluster handoff: giving up on job %s (queue stayed full); record retained", rec.ID)
}

// --- graceful drain ---

// Drain begins a cluster-aware shutdown: this node stops advertising
// itself as available (health reports draining, so peers stop
// forwarding here) and re-forwards its still-queued jobs to live
// owners. Jobs nobody can take — and everything already running — stay
// and finish locally, degrading to the plain single-node drain. Call
// before Manager.Shutdown.
func (c *Cluster) Drain(ctx context.Context) {
	if !c.draining.CompareAndSwap(false, true) {
		return
	}
	stolen := c.m.sched.stealAll()
	if len(stolen) == 0 {
		return
	}
	handed := 0
	for _, j := range stolen {
		if j.State().Terminal() { // cancelled while queued
			continue
		}
		target := c.ring.OwnerAmong(RouteKey(&j.req), c.aliveFor) // self is draining, so never self
		if target != "" && target != c.cfg.Self && c.sendHandoff(ctx, target, j) {
			// The job lives on under the same ID on the target; the
			// local record closes as cancelled (its tombstone also
			// clears our backup's copy).
			c.m.finalize(j, StateCancelled, nil, false, nil)
			c.m.cfg.Logf("serve: drain handed job %s to %s", j.id, target)
			handed++
			continue
		}
		c.m.sched.enqueueForce(j.TenantName(), j) // degrade: finish locally
	}
	c.m.cfg.Logf("serve: cluster drain handed off %d/%d queued jobs", handed, len(stolen))
}

// sendHandoff asks target to adopt one queued job.
func (c *Cluster) sendHandoff(ctx context.Context, target string, j *Job) bool {
	url := c.member.PeerURL(target)
	if url == "" {
		return false
	}
	body, err := json.Marshal(handoffMsg{ID: j.id, Attempt: j.Attempt(), Req: j.req})
	if err != nil {
		return false
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	resp, err := c.client.Do(ctx, http.MethodPost, url+"/cluster/handoff", body, hdr)
	return err == nil && resp.OK()
}

// --- HTTP handlers (mounted by NewHandler when cluster mode is on) ---

func (c *Cluster) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if c.draining.Load() || c.m.Draining() {
		status = "draining"
	}
	peers := map[string]string{}
	for n, s := range c.member.States() {
		peers[n] = s.String()
	}
	writeJSON(w, http.StatusOK, cluster.HealthResponse{Node: c.cfg.Self, Status: status, Peers: peers})
}

func (c *Cluster) handleOwned(w http.ResponseWriter, r *http.Request) {
	var msg ownedMsg
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&msg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding record: %w", err))
		return
	}
	switch msg.Op {
	case "put":
		if msg.ID == "" || msg.Origin == "" || msg.Req == nil {
			writeError(w, http.StatusBadRequest, errors.New("put needs id, origin and req"))
			return
		}
		c.owned.put(msg)
	case "del":
		if msg.ID == "" {
			writeError(w, http.StatusBadRequest, errors.New("del needs id"))
			return
		}
		c.owned.del(msg.ID)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown op %q", msg.Op))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Cluster) handleHandoff(w http.ResponseWriter, r *http.Request) {
	var msg handoffMsg
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&msg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding handoff: %w", err))
		return
	}
	if msg.ID == "" {
		writeError(w, http.StatusBadRequest, errors.New("handoff needs a job id"))
		return
	}
	j, err := c.m.Readmit(msg.ID, msg.Req, msg.Attempt)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
			w.Header().Set("Retry-After", fmt.Sprintf("%d", c.m.RetryAfter()))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	c.handoffDrain.Inc()
	c.m.cfg.Logf("serve: adopted job %s via drain handoff (attempt %d)", msg.ID, msg.Attempt)
	writeJSON(w, http.StatusAccepted, j.View())
}

// --- the backup-side replica store ---

// ownStore holds peer-owned job records, mirrored to an append-only
// JSONL file under DataDir (memory-only without one). Replayed and
// compacted at EnableCluster, so the file stays proportional to the
// live record set.
type ownStore struct {
	mu     sync.Mutex
	recs   map[string]ownedMsg
	f      *os.File // nil = memory-only (no DataDir)
	path   string
	nosync bool
	logf   func(string, ...any)
}

// openOwnStore replays and compacts the owned-record log. An empty dir
// yields a memory-only store.
func openOwnStore(dir string, nosync bool, logf func(string, ...any)) (*ownStore, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &ownStore{recs: make(map[string]ownedMsg), nosync: nosync, logf: logf}
	if dir == "" {
		return s, nil
	}
	s.path = filepath.Join(dir, ownedFile)
	if b, err := os.ReadFile(s.path); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			var msg ownedMsg
			if err := json.Unmarshal([]byte(line), &msg); err != nil {
				// Torn tail or bit rot: skip the line, keep the rest.
				s.logf("serve: skipping bad owned-record line: %v", err)
				continue
			}
			switch msg.Op {
			case "put":
				s.recs[msg.ID] = msg
			case "del":
				delete(s.recs, msg.ID)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: reading owned records: %w", err)
	}
	if err := s.compact(); err != nil {
		return nil, err
	}
	return s, nil
}

// compact rewrites the log to just the live records (tmp + rename) and
// reopens it for appending.
func (s *ownStore) compact() error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("serve: compacting owned records: %w", err)
	}
	ids := make([]string, 0, len(s.recs))
	for id := range s.recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b, err := json.Marshal(s.recs[id])
		if err != nil {
			continue
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return fmt.Errorf("serve: compacting owned records: %w", err)
		}
	}
	if !s.nosync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	s.f, err = os.OpenFile(s.path, os.O_APPEND|os.O_WRONLY, 0o644)
	return err
}

// appendLocked writes one log line; callers hold s.mu. Write failures
// degrade to memory-only (logged once per failure, never fatal — the
// record set stays correct for this process's lifetime).
func (s *ownStore) appendLocked(msg ownedMsg) {
	if s.f == nil {
		return
	}
	b, err := json.Marshal(msg)
	if err != nil {
		return
	}
	if _, err := s.f.Write(append(b, '\n')); err != nil {
		s.logf("serve: owned-record append failed: %v", err)
		return
	}
	if !s.nosync {
		s.f.Sync() //nolint:errcheck
	}
}

func (s *ownStore) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

func (s *ownStore) put(msg ownedMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[msg.ID] = msg
	s.appendLocked(msg)
}

func (s *ownStore) del(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[id]; !ok {
		return
	}
	delete(s.recs, id)
	s.appendLocked(ownedMsg{Op: "del", ID: id})
}

func (s *ownStore) byOrigin(origin string) []ownedMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ownedMsg
	for _, r := range s.recs {
		if r.Origin == origin {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *ownStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}
