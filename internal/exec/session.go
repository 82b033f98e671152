package exec

import (
	"context"
	"fmt"

	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/tensor"
)

// Session executes one network through pooled activation arenas. It
// owns one output buffer per node it runs plus one injection buffer per
// injected node, all reused across calls, so the steady-state
// replay/forward hot path allocates nothing. A buffer is kept by
// capacity: a smaller batch (the ragged last batch of an evaluation)
// reslices the buffer a larger one left, and only a batch larger than
// any before it reallocates. Dense math runs on the kernel backend the
// Session was created with (see kernels.Policy).
//
// A conv or depthwise conv node runs its own layer from the Plan's pack;
// a layer substituted for it in Replay is packed for that call. Each
// pair the Plan fuses, a conv or depthwise conv whose only consumer is
// a one-input ReLU, runs as one kernel call with the ReLU epilogue into
// the ReLU node's buffer, with the bits of the two layers run apart.
// The conv's own output is not kept: the node gets no buffer. A pair
// runs unfused when its ReLU is injected, when a Replay starts at the
// ReLU (from the cached conv output), and when a Replay starts at the
// conv with a layer that has no epilogue.
//
// A Session is NOT safe for concurrent use; create one per worker
// goroutine. Any number of Sessions may share one Plan — the Plan, its
// packs and the underlying Network (weights included) are only read,
// and must stay unwritten while the Plan is in use (see Plan).
//
// Tensors returned by Forward and Replay are owned by the Session and
// overwritten (data and batch dimension) by its next call: consume (or
// copy) them before reusing the Session.
type Session struct {
	plan *Plan
	be   kernels.Backend // resolved from the policy; carries the tracer (see Trace)

	cur    []*tensor.Tensor   // per-call activation view, indexed by node ID
	bufs   []*tensor.Tensor   // pooled output buffer per node
	inbufs []*tensor.Tensor   // pooled injector output per node
	ins    [][]*tensor.Tensor // pooled input-gather slice per node

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

// Trace makes subsequent passes record kernel-level spans as children
// of ctx's span, on the tracer ctx carries (no-op, and zero ongoing
// cost, when ctx carries none). A session reused across work items is
// rebound to each item's context, or every span would hang off the
// first item's. Tracing observes only — results are bit-identical
// either way.
func (s *Session) Trace(ctx context.Context) { s.be = kernels.Traced(ctx, s.be) }

// buf returns the pooled output tensor of node id sized for the given
// batch, reallocating only when the batch outgrows the buffer. Every
// layer writes all of its output, so the stale tail of a larger batch
// is never read.
func (s *Session) buf(id, batch int) *tensor.Tensor {
	want := batch * s.plan.outSize[id]
	if t := s.bufs[id]; t != nil && cap(t.Data) >= want {
		t.Data = t.Data[:want]
		t.Shape[0] = batch
		s.statReuses++
		return t
	}
	shape := append([]int{batch}, s.plan.net.Nodes[id].Shape...)
	t := tensor.New(shape...)
	s.bufs[id] = t
	s.statAllocs++
	return t
}

// inject runs fn from src into node id's pooled injection buffer,
// shaped like src and kept by capacity like the output buffers, and
// returns the buffer.
func (s *Session) inject(id int, fn nn.Injector, src *tensor.Tensor) *tensor.Tensor {
	t := s.inbufs[id]
	if t != nil && cap(t.Data) >= src.Len() && len(t.Shape) == len(src.Shape) {
		t.Data = t.Data[:src.Len()]
		copy(t.Shape, src.Shape)
		s.statReuses++
	} else {
		t = tensor.New(src.Shape...)
		s.inbufs[id] = t
		s.statAllocs++
	}
	fn(t, src)
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

// step executes node id with layer l on ins on the session's kernel
// backend and records the result in cur. A packer runs from pk, the
// Plan's pack of l or nil to pack per call. When fuse is set, the plan
// fuses id with ReLU node r, and l is a packer, it writes the fused
// result into r's pooled buffer as cur[r] and reports true; otherwise
// it writes id's own.
func (s *Session) step(l nn.Layer, pk kernels.Pack, id int, ins []*tensor.Tensor, batch int, fuse bool) bool {
	f, ok := l.(packer)
	if !ok {
		out := s.buf(id, batch)
		nn.ForwardLayer(s.be, l, ins, out)
		s.cur[id] = out
		return false
	}
	fused := fuse && s.plan.relu[id] != 0
	dst := id
	if fused {
		dst = s.plan.relu[id]
	}
	out := s.buf(dst, batch)
	f.ForwardPackedOn(s.be, pk, ins, out, fused)
	s.cur[dst] = out
	return fused
}

// Forward runs a full forward pass of x and returns the logits (owned
// by the Session). Each node in inject computes on its injector's
// output, written into a private buffer from its first input, so a
// tensor several nodes consume is perturbed only as the injected node
// sees it — the paper's Scheme 1 simultaneous multi-layer injection. A
// nil plan runs the exact pass. Fused pairs run as one step unless
// their ReLU is in inject.
//
// Cached-activation slices fed to Replay must come from an allocating
// pass (nn.Network.ForwardAll), never from this Session's own buffers:
// Replay writes into those buffers and would corrupt the cache.
func (s *Session) Forward(x *tensor.Tensor, inject map[int]nn.Injector) *tensor.Tensor {
	p, net := s.plan, s.plan.net
	batch := x.Shape[0]
	s.cur[0] = x
	for _, nd := range net.Nodes[1:] {
		fn, injected := inject[nd.ID]
		if p.relu[nd.Inputs[0]] == nd.ID && !injected {
			continue // computed with its conv
		}
		ins := s.gather(nd)
		if injected {
			ins[0] = s.inject(nd.ID, fn, ins[0])
		}
		_, reluInjected := inject[p.relu[nd.ID]]
		s.step(nd.Layer, p.packs[nd.ID], nd.ID, ins, batch, !reluInjected)
	}
	s.flushStats()
	return s.cur[len(net.Nodes)-1]
}

// Replay re-executes the sub-graph downstream of nodeID from the cached
// exact activations acts and returns the logits (owned by the
// Session): node nodeID computes with layer in place of its own and on
// its first input perturbed by inject, then exactly the plan's
// precomputed downstream set reruns. This is what makes per-layer
// profiling affordable: injecting at layer K costs only the K..Ł
// suffix. Weight profiling passes a shallow copy of the node's layer
// holding worker-private perturbed weights, so the shared network is
// only read. A nil layer keeps the node's own, run from the Plan's pack;
// another layer is packed for the call. A nil inject leaves the node's
// input exact. acts is only read. Fused pairs in the suffix run as one
// step, the node itself too when the layer it runs applies the ReLU
// epilogue.
func (s *Session) Replay(acts []*tensor.Tensor, nodeID int, layer nn.Layer, inject nn.Injector) *tensor.Tensor {
	p, net := s.plan, s.plan.net
	if nodeID <= 0 || nodeID >= len(net.Nodes) {
		panic(fmt.Sprintf("exec: Replay node %d out of range", nodeID))
	}
	copy(s.cur, acts)
	batch := acts[0].Shape[0]

	nd := net.Nodes[nodeID]
	ins := s.gather(nd)
	if inject != nil {
		ins[0] = s.inject(nodeID, inject, ins[0])
	}
	pk := p.packs[nodeID]
	if layer == nil {
		layer = nd.Layer
	} else {
		pk = nil // a substitute packs for the call
	}
	fused := s.step(layer, pk, nodeID, ins, batch, true)

	for _, id := range p.downstream[nodeID] {
		node := net.Nodes[id]
		if c := node.Inputs[0]; p.relu[c] == id && (c != nodeID || fused) {
			continue // computed with its conv
		}
		s.step(node.Layer, p.packs[id], id, s.gather(node), batch, true)
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
