// Package exec is the one inference executor: every inference pass of
// the measurement pipeline, exact or with noise injected, runs here.
// Only the cached exact activations a replay starts from come from the
// allocating nn.Network.ForwardAll. Four pieces compose:
//
//   - Plan: per-network state computed once — the downstream dirty-set
//     of every node (which suffix nodes a perturbation at K actually
//     reaches), per-node output sizes, the fused pairs, and each conv
//     and depthwise conv node's packed weights and index tables — so
//     each of the thousands of profiling replays recomputes exactly the
//     nodes the perturbation reaches, and packs none of them.
//   - Session: reusable activation arenas and the two passes, Forward
//     (a full pass with an optional per-node injection plan) and Replay
//     (the suffix after one perturbed node, from cached exact
//     activations). Each node writes into a pooled tensor through
//     nn.ForwardLayer on the session's kernel backend instead of
//     allocating; a conv or depthwise conv node runs its own layer from
//     the Plan's pack. A fused pair, a conv or depthwise conv whose only
//     consumer is a ReLU, runs as one step: the kernel applies the
//     ReLU at its store and writes the ReLU node's buffer, so the
//     conv's own output is never materialized and no separate ReLU
//     pass runs. Sessions are single-goroutine; many sessions share one
//     read-only Plan.
//   - Evaluator: a bounded worker pool mapping a deterministic work
//     list across workers. Callers pre-split RNG streams per work item
//     and reduce in index order, so parallel results are bit-identical
//     to sequential execution at any worker count.
//   - Pool: an Evaluator with one Session per worker over a shared
//     Plan, which the profile sweeps, the σ search and Accuracy use.
package exec

import (
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/tensor"
)

// packer is implemented by the layers whose kernel runs from packed
// weights and applies ReLU at its store, *nn.Conv2D and
// *nn.DepthwiseConv2D: ForwardPackedOn with relu set gives the bits of
// the layer followed by nn.ReLU in one kernel call.
type packer interface {
	Pack(in []int) kernels.Pack
	ForwardPackedOn(be kernels.Backend, pk kernels.Pack, ins []*tensor.Tensor, out *tensor.Tensor, relu bool)
}

// Plan is immutable per-network execution state, built once and shared
// by any number of concurrent Sessions.
//
// A Plan is a snapshot of the network's conv weights: NewPlan packs
// each conv and depthwise conv node's layer once, and every pass runs
// the node from that pack. The network's weights must therefore only be
// read during a Plan's life. Build the Plan after the last in-place
// write (weights.Allocation.Apply, training); a later write would reach
// the dense layers and not the packed ones.
type Plan struct {
	net *nn.Network

	// downstream[id] lists, in ascending (topological) order, the node
	// IDs strictly after id whose output changes when id's output
	// changes. A replay injected at id recomputes id and then exactly
	// this list.
	downstream [][]int

	// outSize[id] is the per-image element count of node id's output.
	outSize []int

	// relu[c] = r when conv node c is fused with ReLU node r, and 0
	// elsewhere (node 0, the input, is never fused). r's only input is
	// then c, so r is fused exactly when relu[r's Inputs[0]] = r.
	relu []int

	// packs[id] is node id's own layer packed for its input shape when
	// the layer is a packer, and nil elsewhere. Packs are only read.
	packs []kernels.Pack
}

// NewPlan analyzes net, precomputes its replay metadata and packs its
// conv and depthwise conv layers.
func NewPlan(net *nn.Network) *Plan {
	n := len(net.Nodes)
	p := &Plan{
		net:        net,
		downstream: make([][]int, n),
		outSize:    make([]int, n),
		relu:       make([]int, n),
		packs:      make([]kernels.Pack, n),
	}
	consumers := make([]int, n)
	for id, nd := range net.Nodes {
		sz := 1
		for _, d := range nd.Shape {
			sz *= d
		}
		p.outSize[id] = sz
		for _, in := range nd.Inputs {
			consumers[in]++
		}
		if l, ok := nd.Layer.(packer); ok {
			p.packs[id] = l.Pack(net.Nodes[nd.Inputs[0]].Shape)
		}
	}
	// Fuse node c with r when c's layer applies the ReLU epilogue, r is
	// its only consumer, and r is a one-input ReLU.
	for _, nd := range net.Nodes[1:] {
		if _, ok := nd.Layer.(nn.ReLU); !ok || len(nd.Inputs) != 1 {
			continue
		}
		c := nd.Inputs[0]
		if p.packs[c] != nil && consumers[c] == 1 {
			p.relu[c] = nd.ID
		}
	}
	// One forward reachability sweep per start node. Nodes are stored
	// in topological order with Inputs[i] < ID, so a single ascending
	// pass finds every affected successor.
	affected := make([]bool, n)
	for start := 1; start < n; start++ {
		for i := range affected {
			affected[i] = false
		}
		affected[start] = true
		var list []int
		for id := start + 1; id < n; id++ {
			for _, in := range net.Nodes[id].Inputs {
				if affected[in] {
					affected[id] = true
					list = append(list, id)
					break
				}
			}
		}
		p.downstream[start] = list
	}
	return p
}

// Downstream returns the IDs of the nodes (in topological order,
// excluding nodeID itself) recomputed by a replay injected at nodeID.
// The returned slice is shared — callers must not modify it.
func (p *Plan) Downstream(nodeID int) []int { return p.downstream[nodeID] }

// OutSize returns the per-image output element count of a node.
func (p *Plan) OutSize(nodeID int) int { return p.outSize[nodeID] }
