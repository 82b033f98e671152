// Package exec owns network execution for the measurement pipeline.
// Three pieces compose:
//
//   - Plan: per-network metadata computed once — the downstream
//     dirty-set of every node (which suffix nodes a perturbation at K
//     actually reaches) and per-node output sizes — so replays stop
//     rescanning every successor on each of the thousands of
//     profiling replays nn.ReplayFrom performs.
//   - Session: reusable activation arenas. A replay or forward pass
//     writes into pooled per-node tensors instead of allocating
//     ~len(Nodes) tensors per call: kernel layers (conv, depthwise
//     conv, dense, pooling) through nn.BackendForwarder on the
//     session's kernel backend, the rest (ReLU, flatten, add, concat)
//     through nn.IntoForwarder. Sessions are single-goroutine; many
//     sessions share one read-only Plan.
//   - Evaluator: a bounded worker pool mapping a deterministic work
//     list across workers. Callers pre-split RNG streams per work item
//     and reduce in index order, so parallel results are bit-identical
//     to sequential execution at any worker count.
package exec

import (
	"mupod/internal/nn"
)

// Plan is immutable per-network execution metadata, built once and
// shared by any number of concurrent Sessions.
type Plan struct {
	net *nn.Network

	// downstream[id] lists, in ascending (topological) order, the node
	// IDs strictly after id whose output changes when id's output
	// changes. A replay injected at id recomputes id and then exactly
	// this list.
	downstream [][]int

	// outSize[id] is the per-image element count of node id's output.
	outSize []int
}

// NewPlan analyzes net and precomputes its replay metadata.
func NewPlan(net *nn.Network) *Plan {
	n := len(net.Nodes)
	p := &Plan{
		net:        net,
		downstream: make([][]int, n),
		outSize:    make([]int, n),
	}
	for id, nd := range net.Nodes {
		sz := 1
		for _, d := range nd.Shape {
			sz *= d
		}
		p.outSize[id] = sz
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

// Network returns the network this plan was built for.
func (p *Plan) Network() *nn.Network { return p.net }

// Downstream returns the IDs of the nodes (in topological order,
// excluding nodeID itself) recomputed by a replay injected at nodeID.
// The returned slice is shared — callers must not modify it.
func (p *Plan) Downstream(nodeID int) []int { return p.downstream[nodeID] }

// OutSize returns the per-image output element count of a node.
func (p *Plan) OutSize(nodeID int) int { return p.outSize[nodeID] }
