package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mupod/internal/cluster"
	"mupod/internal/dataset"
	"mupod/internal/fault"
	"mupod/internal/kernels"
	"mupod/internal/nn"
)

// swapHandler lets a test server start before the Manager behind it
// exists: heartbeat probes arriving during bootstrap get a 503 (a
// miss, tolerated by the optimistic detector) instead of a hang.
type swapHandler struct{ v atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.v.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

type testNode struct {
	name string
	m    *Manager
	c    *Cluster
	ts   *httptest.Server
	url  string
}

// startTestCluster brings up in-process nodes with fast heartbeats.
// The servers are listening before any Manager exists, so every node's
// peer URLs are real from the first probe.
func startTestCluster(t *testing.T, names []string, cfgFor func(name string) Config, hb time.Duration, suspectAfter, deadAfter int) map[string]*testNode {
	t.Helper()
	nodes := map[string]*testNode{}
	handlers := map[string]*swapHandler{}
	var peers []cluster.Peer
	for _, n := range names {
		sh := &swapHandler{}
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		handlers[n] = sh
		nodes[n] = &testNode{name: n, ts: ts, url: ts.URL}
		peers = append(peers, cluster.Peer{Name: n, URL: ts.URL})
	}
	for _, n := range names {
		cfg := cfgFor(n)
		if cfg.Resolver == nil {
			cfg.Resolver = testResolver
		}
		name := n
		cfg.Logf = func(format string, args ...any) { t.Logf("["+name+"] "+format, args...) }
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.EnableCluster(ClusterConfig{
			Self:              n,
			Peers:             peers,
			HeartbeatInterval: hb,
			SuspectAfter:      suspectAfter,
			DeadAfter:         deadAfter,
			ForwardTimeout:    2 * time.Second,
			ForwardRetries:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		handlers[n].v.Store(NewHandler(m))
		nodes[n].m, nodes[n].c = m, c
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.Shutdown(ctx) //nolint:errcheck // double-shutdown in tests is fine
		})
	}
	// Every detector must see every peer alive before a test routes.
	for _, n := range nodes {
		for _, p := range names {
			if p == n.name {
				continue
			}
			n, p := n, p
			waitUntil(t, n.name+" sees "+p+" alive", 5*time.Second, func() bool { return n.c.member.Alive(p) })
		}
	}
	return nodes
}

func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// requestOwnedBy searches seeds until the request's routing key lands
// on the wanted node (pure ring topology, liveness-independent).
func requestOwnedBy(t *testing.T, c *Cluster, want string) JobRequest {
	t.Helper()
	for s := uint64(1); s < 4096; s++ {
		req := tinyRequest()
		req.Profile.Seed = s
		if c.ring.Owner(RouteKey(&req)) == want {
			return req
		}
	}
	t.Fatalf("no seed routes to node %s", want)
	return JobRequest{}
}

func postJSON(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// maskRuntimeValues splits a metrics page into lines with the sample
// values of the mupod_go_* runtime gauges blanked: goroutine counts and
// heap bytes legitimately differ between two live managers, and the
// byte-identity contract is about metric families and label sets, not
// about two processes sharing an allocator state.
func maskRuntimeValues(page string) []string {
	lines := strings.Split(page, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "mupod_go_") {
			if sp := strings.LastIndexByte(l, ' '); sp >= 0 {
				lines[i] = l[:sp] + " <live>"
			}
		}
	}
	return lines
}

// A one-node "cluster" must be a complete no-op: EnableCluster returns
// nil and the /metrics page stays byte-identical to a plain daemon —
// no cluster families, no cluster routes.
func TestClusterSingleNodeIsByteIdentical(t *testing.T) {
	plain := newTestManager(t, Config{Workers: 2})
	NewHandler(plain)

	solo := newTestManager(t, Config{Workers: 2})
	c, err := solo.EnableCluster(ClusterConfig{
		Self:  "solo",
		Peers: []cluster.Peer{{Name: "solo", URL: "http://ignored"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatal("EnableCluster with no remote peers must return a nil cluster")
	}
	if solo.Cluster() != nil {
		t.Fatal("manager holds a cluster despite no remote peers")
	}
	NewHandler(solo)

	var a, b strings.Builder
	plain.WriteMetrics(&a)
	solo.WriteMetrics(&b)
	al, bl := maskRuntimeValues(a.String()), maskRuntimeValues(b.String())
	if len(al) != len(bl) {
		t.Fatalf("single-node cluster changed the metrics page: %d lines vs %d", len(al), len(bl))
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("single-node cluster changed the metrics page at line %d:\nplain:   %q\ncluster: %q", i+1, al[i], bl[i])
		}
	}

	j, err := solo.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j.ID(), "j-") {
		t.Fatalf("single-node job ID %q gained a cluster prefix", j.ID())
	}
}

// RouteKey must ignore everything that cannot change the result —
// tenant, parallelism and kernel policies — so equivalent requests
// land on the same owner (and its caches).
func TestRouteKeyNormalization(t *testing.T) {
	base := tinyRequest()
	variants := []func(*JobRequest){
		func(r *JobRequest) { r.Tenant = "acme" },
		func(r *JobRequest) { r.Workers = 7 },
		func(r *JobRequest) { r.IntraWorkers = 3 },
		func(r *JobRequest) { r.Kernel = "parallel" },
		func(r *JobRequest) { r.Kernel = "blocked" },
		func(r *JobRequest) { r.Profile.Kernel = kernels.Policy{Impl: "parallel", IntraWorkers: 2} },
		func(r *JobRequest) { r.Search.Kernel = kernels.Policy{Impl: "blocked"} },
	}
	want := RouteKey(&base)
	for i, mutate := range variants {
		req := tinyRequest()
		mutate(&req)
		if got := RouteKey(&req); got != want {
			t.Errorf("variant %d changed the routing key: %s vs %s", i, got, want)
		}
	}
	other := tinyRequest()
	other.Profile.Seed = 99
	if RouteKey(&other) == want {
		t.Fatal("different profile seeds must produce different routing keys")
	}
}

func TestIDNumHandlesClusterPrefix(t *testing.T) {
	for id, want := range map[string]int{
		"j-000123":      123,
		"a-j-000007":    7,
		"node.1-j-0042": 42,
		"garbage":       0,
	} {
		if got := idNum(id); got != want {
			t.Errorf("idNum(%q) = %d, want %d", id, got, want)
		}
	}
}

// A submission arriving at a non-owner is forwarded to the owner; the
// tenant identity travels with it (header + body), the response is
// relayed verbatim, and a poll on the non-owner proxies to the origin.
func TestClusterForwardAndTenantPinning(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b"},
		func(string) Config { return Config{Workers: 1} }, 50*time.Millisecond, 2, 5)
	a, b := nodes["a"], nodes["b"]

	req := requestOwnedBy(t, a.c, "b")
	resp, body := postJSON(t, a.url+"/v1/jobs", req, map[string]string{tenantHeader: "acme"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via non-owner = %d, body %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(view.ID, "b-") {
		t.Fatalf("job %s not admitted on owner b", view.ID)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+view.ID {
		t.Fatalf("Location %q not relayed from the owner", loc)
	}
	if got := a.c.ForwardsForwarded(); got != 1 {
		t.Fatalf("origin forward counter = %d, want 1", got)
	}
	if got := b.c.ForwardedIn(); got != 1 {
		t.Fatalf("owner forwarded-in counter = %d, want 1", got)
	}

	j, err := b.m.Get(view.ID)
	if err != nil {
		t.Fatalf("owner does not know the job: %v", err)
	}
	if j.TenantName() != "acme" {
		t.Fatalf("tenant %q lost across the hop, want acme", j.TenantName())
	}
	waitState(t, j, StateDone)
	if got := b.m.metrics.TenantJobs("acme"); got != 1 {
		t.Fatalf("owner-side tenant metric = %d, want 1 (tenant accounting must follow the job)", got)
	}
	if got := a.m.metrics.TenantJobs("acme"); got != 0 {
		t.Fatalf("non-owner tenant metric = %d, want 0", got)
	}

	// Poll the non-owner: the ID's prefix routes the read to the origin.
	getResp, getBody := getURL(t, a.url+"/v1/jobs/"+view.ID)
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("proxied poll = %d, body %s", getResp.StatusCode, getBody)
	}
	var polled JobView
	if err := json.Unmarshal(getBody, &polled); err != nil {
		t.Fatal(err)
	}
	if polled.ID != view.ID || polled.State != StateDone {
		t.Fatalf("proxied poll returned %s/%s, want %s done", polled.ID, polled.State, view.ID)
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// The X-Mupod-Forwarded hop header is the loop breaker: a request that
// already hopped once is computed where it lands, even on a non-owner.
func TestClusterForwardLoopPrevention(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b"},
		func(string) Config { return Config{Workers: 1} }, 50*time.Millisecond, 2, 5)
	a := nodes["a"]

	req := requestOwnedBy(t, a.c, "b")
	resp, body := postJSON(t, a.url+"/v1/jobs", req, map[string]string{forwardedHeader: "test"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded submit = %d, body %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(view.ID, "a-") {
		t.Fatalf("hop-marked request was re-forwarded (job %s); one hop max", view.ID)
	}
	if got := a.c.ForwardsForwarded(); got != 0 {
		t.Fatalf("forward counter = %d, want 0", got)
	}
	if got := a.c.ForwardedIn(); got != 1 {
		t.Fatalf("forwarded-in counter = %d, want 1", got)
	}
}

// A forward that fails in flight (cluster.forward failpoint) falls back
// to local compute: counted, never surfaced to the client.
func TestClusterForwardFallbackLocal(t *testing.T) {
	defer fault.Reset()
	nodes := startTestCluster(t, []string{"a", "b"},
		func(string) Config { return Config{Workers: 1} }, 50*time.Millisecond, 2, 5)
	a := nodes["a"]

	if err := fault.Enable("cluster.forward", "error(transient:injected forward outage)"); err != nil {
		t.Fatal(err)
	}
	req := requestOwnedBy(t, a.c, "b")
	resp, body := postJSON(t, a.url+"/v1/jobs", req, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit during forward outage = %d, body %s (fallback must keep serving)", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(view.ID, "a-") {
		t.Fatalf("fallback job %s not admitted locally", view.ID)
	}
	if got := a.c.ForwardsFallback(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	j, err := a.m.Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
}

// Readmit is the handoff admission gate: it enforces the queue bounds,
// is idempotent per ID, and finalizes exhausted attempt budgets instead
// of re-running them.
func TestReadmitGate(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 2, Resolver: blockingResolver})
	running, err := m.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first job running", 5*time.Second, func() bool { return running.State() == StateRunning })
	for i := 0; i < 2; i++ { // fill the queue
		if _, err := m.Submit(tinyRequest()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Readmit("x-j-000001", tinyRequest(), 0); err != ErrQueueFull {
		t.Fatalf("Readmit on a full queue = %v, want ErrQueueFull", err)
	}
	for _, j := range m.Jobs() { // unpin so Shutdown doesn't eat the drain budget
		m.Cancel(j.ID()) //nolint:errcheck
	}

	m2 := newTestManager(t, Config{Workers: 1})
	j1, err := m2.Readmit("x-j-000001", tinyRequest(), 1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m2.Readmit("x-j-000001", tinyRequest(), 1)
	if err != nil || j2 != j1 {
		t.Fatalf("second Readmit of the same ID = (%p, %v), want the original job (%p)", j2, err, j1)
	}
	waitState(t, j1, StateDone)
	if got := j1.Attempt(); got != 2 {
		t.Fatalf("readmitted job ran as attempt %d, want 2 (budget carried over)", got)
	}

	exhausted, err := m2.Readmit("x-j-000002", tinyRequest(), 3) // MaxAttempts default 3
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, exhausted, StateFailed)
}

// Graceful drain: a draining node hands its still-queued jobs to live
// owners; running jobs finish locally; the handed-off jobs keep their
// IDs and complete on the adopter.
func TestClusterDrainHandsOffQueue(t *testing.T) {
	release := make(chan struct{})
	blockOn := func(ctx context.Context, req *JobRequest) (*nn.Network, *dataset.Dataset, error) {
		if req.Model == "block" {
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-release:
			}
		}
		return testResolver(ctx, req)
	}
	nodes := startTestCluster(t, []string{"a", "b"}, func(name string) Config {
		cfg := Config{Workers: 1}
		if name == "a" {
			cfg.Resolver = blockOn
		}
		return cfg
	}, 50*time.Millisecond, 2, 5)
	a, b := nodes["a"], nodes["b"]

	blocker := tinyRequest()
	blocker.Model = "block"
	jb, err := a.m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "blocker running", 5*time.Second, func() bool { return jb.State() == StateRunning })

	var queued []*Job
	for i := uint64(0); i < 3; i++ {
		req := tinyRequest()
		req.Profile.Seed = 10 + i
		j, err := a.m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a.c.Drain(ctx)

	if got := b.c.Handoffs(); got != 3 {
		t.Fatalf("adopter handoff counter = %d, want 3", got)
	}
	for _, orig := range queued {
		adopted, err := b.m.Get(orig.ID())
		if err != nil {
			t.Fatalf("job %s not adopted by b: %v", orig.ID(), err)
		}
		waitState(t, adopted, StateDone)
		if orig.State() != StateCancelled {
			t.Fatalf("handed-off job %s is %s on the drained node, want cancelled", orig.ID(), orig.State())
		}
	}

	// The draining node reports it on /cluster/health, and its running
	// job still finishes locally.
	resp, body := getURL(t, a.url+"/cluster/health")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/health = %d", resp.StatusCode)
	}
	var h cluster.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("health status %q after Drain, want draining", h.Status)
	}
	close(release)
	waitState(t, jb, StateDone)
}

// /readyz speaks cluster: losing half the members is a machine-readable
// unreadiness reason.
func TestClusterReadyzQuorum(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b"},
		func(string) Config { return Config{Workers: 1} }, 25*time.Millisecond, 2, 4)
	a, b := nodes["a"], nodes["b"]

	if ready, reasons := a.m.Readiness(); !ready {
		t.Fatalf("healthy cluster unready: %v", reasons)
	}
	b.ts.Close() // b goes dark; a's detector must declare it dead
	waitUntil(t, "b declared dead", 5*time.Second, func() bool { return a.c.member.State("b") == cluster.PeerDead })
	ready, reasons := a.m.Readiness()
	if ready {
		t.Fatal("node ready despite quorum loss")
	}
	found := false
	for _, r := range reasons {
		if r == "cluster quorum lost" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons %v missing %q", reasons, "cluster quorum lost")
	}
}
