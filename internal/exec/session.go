package exec

import (
	"context"
	"fmt"

	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/tensor"
)

// Session executes one network through pooled activation arenas. It
// owns one output buffer per node plus one injection buffer per node
// and a shared float64 scratch (the conv im2col columns), all reused
// across calls, so the steady-state replay/forward hot path allocates
// nothing. Dense math runs on the kernel backend the Session was
// created with (see kernels.Policy).
//
// A Session is NOT safe for concurrent use; create one per worker
// goroutine. Any number of Sessions may share one Plan — the Plan and
// the underlying Network (weights included) are only read.
//
// Tensors returned by Replay/Forward/ForwardInject are owned by the
// Session and overwritten by its next call: consume (or copy) them
// before reusing the Session.
type Session struct {
	plan *Plan
	be   kernels.Backend // resolved from the policy; carries the tracer (see Trace)

	cur     []*tensor.Tensor   // per-call activation view, indexed by node ID
	bufs    []*tensor.Tensor   // pooled output buffer per node
	inbufs  []*tensor.Tensor   // pooled injected-input copy per node
	ins     [][]*tensor.Tensor // pooled input-gather slice per node
	scratch []float64          // layer working memory (im2col columns)

	// Arena stats for the in-flight pass, batched in plain ints (the
	// Session is single-goroutine) and published once per public call.
	statReuses uint64
	statAllocs uint64
}

// NewSession creates an execution session over the given plan using the
// default kernel policy.
func NewSession(p *Plan) *Session { return NewSessionPolicy(p, kernels.Policy{}) }

// NewSessionPolicy creates an execution session computing on the kernel
// backend pol resolves to. The policy must be valid (validate
// upstream); an unknown name panics here rather than silently falling
// back.
func NewSessionPolicy(p *Plan, pol kernels.Policy) *Session {
	n := len(p.net.Nodes)
	s := &Session{
		plan:   p,
		be:     kernels.MustNew(pol),
		cur:    make([]*tensor.Tensor, n),
		bufs:   make([]*tensor.Tensor, n),
		inbufs: make([]*tensor.Tensor, n),
		ins:    make([][]*tensor.Tensor, n),
	}
	for id, nd := range p.net.Nodes {
		s.ins[id] = make([]*tensor.Tensor, len(nd.Inputs))
	}
	return s
}

// Trace makes subsequent passes record kernel-level spans on the tracer
// carried by ctx (no-op, and zero ongoing cost, when ctx carries none).
// Tracing observes only — results are bit-identical either way.
func (s *Session) Trace(ctx context.Context) { s.be = kernels.Traced(ctx, s.be) }

// Plan returns the plan this session executes.
func (s *Session) Plan() *Plan { return s.plan }

// buf returns the pooled output tensor of node id sized for the given
// batch, reallocating only when the batch size changes.
func (s *Session) buf(id, batch int) *tensor.Tensor {
	want := batch * s.plan.outSize[id]
	if t := s.bufs[id]; t != nil && t.Len() == want {
		s.statReuses++
		return t
	}
	shape := append([]int{batch}, s.plan.net.Nodes[id].Shape...)
	t := tensor.New(shape...)
	s.bufs[id] = t
	s.statAllocs++
	return t
}

// injectCopy copies src into node id's pooled injection buffer.
func (s *Session) injectCopy(id int, src *tensor.Tensor) *tensor.Tensor {
	t := s.inbufs[id]
	if t == nil || t.Len() != src.Len() || len(t.Shape) != len(src.Shape) {
		t = tensor.New(src.Shape...)
		s.inbufs[id] = t
		s.statAllocs++
	} else {
		s.statReuses++
	}
	copy(t.Data, src.Data)
	copy(t.Shape, src.Shape)
	return t
}

// gather fills node id's pooled input slice from the current
// activations.
func (s *Session) gather(nd *nn.Node) []*tensor.Tensor {
	ins := s.ins[nd.ID]
	for i, in := range nd.Inputs {
		ins[i] = s.cur[in]
	}
	return ins
}

// step executes node id with layer l into its pooled buffer — on the
// session's kernel backend for kernel layers, with ForwardInto for the
// rest, and with the layer's allocating Forward for layers that have
// neither — and records the result in cur.
func (s *Session) step(l nn.Layer, id int, ins []*tensor.Tensor, batch int) {
	if f, ok := l.(nn.BackendForwarder); ok {
		out := s.buf(id, batch)
		s.scratch = f.ForwardIntoOn(s.be, ins, out, s.scratch)
		s.cur[id] = out
		return
	}
	if f, ok := l.(nn.IntoForwarder); ok {
		out := s.buf(id, batch)
		s.scratch = f.ForwardInto(ins, out, s.scratch)
		s.cur[id] = out
		return
	}
	s.cur[id] = l.Forward(ins)
}

// Replay is the plan-based equivalent of nn.ReplayFrom: re-execute the
// sub-graph downstream of nodeID from cached exact activations with
// the input of nodeID perturbed by inject, touching exactly the
// precomputed dirty-set instead of scanning every successor. The
// returned logits are owned by the Session.
func (s *Session) Replay(acts []*tensor.Tensor, nodeID int, inject nn.Injector) *tensor.Tensor {
	return s.ReplayLayer(acts, nodeID, nil, inject)
}

// ReplayLayer is Replay with node nodeID computed by layer in place of
// its own — weight profiling passes a shallow copy of the node's layer
// holding worker-private perturbed weights, so the shared network is
// only read. A nil layer keeps the node's own; a nil inject leaves the
// node's input exact.
func (s *Session) ReplayLayer(acts []*tensor.Tensor, nodeID int, layer nn.Layer, inject nn.Injector) *tensor.Tensor {
	net := s.plan.net
	if nodeID <= 0 || nodeID >= len(net.Nodes) {
		panic(fmt.Sprintf("exec: Replay node %d out of range", nodeID))
	}
	copy(s.cur, acts)
	batch := acts[0].Shape[0]

	nd := net.Nodes[nodeID]
	ins := s.gather(nd)
	if inject != nil {
		cp := s.injectCopy(nodeID, ins[0])
		inject(cp)
		ins[0] = cp
	}
	if layer == nil {
		layer = nd.Layer
	}
	s.step(layer, nodeID, ins, batch)

	for _, id := range s.plan.downstream[nodeID] {
		node := net.Nodes[id]
		s.step(node.Layer, id, s.gather(node), batch)
	}
	s.flushStats()
	return s.cur[len(net.Nodes)-1]
}

// flushStats publishes the pass's batched arena counters to the active
// metrics set. With telemetry disabled this is one atomic load, a
// branch, and two int stores — the cost BenchmarkObsDisabled pins.
func (s *Session) flushStats() {
	m := loadMetrics()
	if m == nil {
		s.statReuses, s.statAllocs = 0, 0
		return
	}
	m.Forwards.Add(1)
	m.ArenaReuses.Add(s.statReuses)
	m.ArenaAllocs.Add(s.statAllocs)
	s.statReuses, s.statAllocs = 0, 0
}

// ForwardInject runs a full forward pass with the per-node injection
// plan applied (each injected node sees a privately perturbed copy of
// its first input, exactly like nn.ForwardInject). The returned logits
// are owned by the Session.
func (s *Session) ForwardInject(x *tensor.Tensor, inject map[int]nn.Injector) *tensor.Tensor {
	net := s.plan.net
	batch := x.Shape[0]
	s.cur[0] = x
	for _, nd := range net.Nodes[1:] {
		ins := s.gather(nd)
		if fn, ok := inject[nd.ID]; ok {
			cp := s.injectCopy(nd.ID, ins[0])
			fn(cp)
			ins[0] = cp
		}
		s.step(nd.Layer, nd.ID, ins, batch)
	}
	s.flushStats()
	return s.cur[len(net.Nodes)-1]
}

// Forward runs a plain full forward pass through the arenas and
// returns the logits (owned by the Session).
//
// Note: cached-activation slices fed to Replay must come from an
// allocating pass (nn.Network.ForwardAll), never from this Session's
// own buffers — Replay writes into those buffers and would corrupt
// the cache.
func (s *Session) Forward(x *tensor.Tensor) *tensor.Tensor {
	return s.ForwardInject(x, nil)
}
