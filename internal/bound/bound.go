// Package bound implements the THEORETICAL-GUARANTEE baseline the paper
// positions itself against (Sec. I: analytical approaches "are usually
// too conservative, and impractical at finer granularities", citing
// Sakr et al. [5]). It derives per-layer bitwidths with a worst-case
// argument and NO network execution:
//
//  1. Amplification: a perturbation bounded by Δ in ℓ∞ norm at the
//     input of layer K grows through the suffix of the network by at
//     most Amp(K) — the product/sum of per-node ℓ∞→ℓ∞ Lipschitz
//     constants (max absolute row sum for dot-product layers, 1 for
//     ReLU/pooling, additive at residual joins), composed over the DAG.
//  2. Decision margin: if every logit moves by less than half the
//     smallest top1−top2 gap over the dataset, no prediction can flip.
//  3. Budget split: giving each of the Ł layers an equal share of that
//     guarantee yields Δ_K = margin / (2·Ł·Amp(K)) and hence a format.
//
// The result provably loses ZERO accuracy — and, as the paper claims,
// costs several more bits per layer than the statistical method (see
// the comparison bench and EXPERIMENTS.md).
package bound

import (
	"fmt"
	"math"

	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/nn"
	"mupod/internal/profile"
)

// lipschitz returns the ℓ∞→ℓ∞ gain bound of one layer: the worst-case
// factor by which the maximum absolute input perturbation can grow.
func lipschitz(l nn.Layer) float64 {
	switch t := l.(type) {
	case *nn.Conv2D:
		// Each output is a dot product over at most InC·K² taps; the
		// worst output row is bounded by the largest kernel ℓ1 norm
		// across output channels.
		worst := 0.0
		per := t.InC * t.K * t.K
		for oc := 0; oc < t.OutC; oc++ {
			sum := 0.0
			for i := 0; i < per; i++ {
				sum += math.Abs(t.W.Data[oc*per+i])
			}
			if sum > worst {
				worst = sum
			}
		}
		return worst
	case *nn.DepthwiseConv2D:
		worst := 0.0
		per := t.K * t.K
		for c := 0; c < t.C; c++ {
			sum := 0.0
			for i := 0; i < per; i++ {
				sum += math.Abs(t.W.Data[c*per+i])
			}
			if sum > worst {
				worst = sum
			}
		}
		return worst
	case *nn.Dense:
		worst := 0.0
		for o := 0; o < t.Out; o++ {
			sum := 0.0
			for i := 0; i < t.In; i++ {
				sum += math.Abs(t.W.Data[o*t.In+i])
			}
			if sum > worst {
				worst = sum
			}
		}
		return worst
	case nn.ReLU, nn.Flatten, nn.GlobalAvgPool, *nn.MaxPool2D, *nn.AvgPool2D, nn.Concat:
		// |max(0,x+δ) − max(0,x)| ≤ |δ|; pooling and reshaping never
		// increase the ℓ∞ norm; concat keeps each element's bound.
		return 1
	default:
		panic(fmt.Sprintf("bound: no Lipschitz rule for layer kind %q", l.Kind()))
	}
}

// Amplification returns, for each analyzable node, the worst-case
// ℓ∞ gain from that node's INPUT to the network output, composed over
// the DAG (gains add at residual joins, since both branches can carry
// the perturbation).
func Amplification(net *nn.Network) map[int]float64 {
	out := map[int]float64{}
	for _, k := range net.AnalyzableNodes() {
		gain := make([]float64, len(net.Nodes))
		// A unit perturbation sits at the input of node k.
		gain[net.Nodes[k].Inputs[0]] = 1
		for id := k; id < len(net.Nodes); id++ {
			nd := net.Nodes[id]
			if nd.Layer == nil {
				continue
			}
			in := 0.0
			if _, isAdd := nd.Layer.(nn.Add); isAdd {
				for _, p := range nd.Inputs {
					in += gain[p]
				}
			} else {
				for _, p := range nd.Inputs {
					if gain[p] > in {
						in = gain[p]
					}
				}
			}
			if in == 0 {
				continue
			}
			g := in * lipschitz(nd.Layer)
			if g > gain[id] {
				gain[id] = g
			}
		}
		out[k] = gain[len(net.Nodes)-1]
	}
	return out
}

// DecisionMargin returns half the smallest top1−top2 logit gap over the
// first n images: any output perturbation with ℓ∞ norm below it cannot
// change a single prediction.
func DecisionMargin(net *nn.Network, ds *dataset.Dataset, n int) float64 {
	if n <= 0 || n > ds.Len() {
		n = ds.Len()
	}
	margin := math.Inf(1)
	const batch = 32
	sess := exec.NewSession(exec.NewPlan(net))
	for start := 0; start < n; start += batch {
		b := batch
		if start+b > n {
			b = n - start
		}
		logits := sess.Forward(ds.Batch(start, b), nil)
		C := logits.Shape[1]
		for i := 0; i < b; i++ {
			row := logits.Data[i*C : (i+1)*C]
			best, second := math.Inf(-1), math.Inf(-1)
			for _, v := range row {
				if v > best {
					second = best
					best = v
				} else if v > second {
					second = v
				}
			}
			if gap := (best - second) / 2; gap < margin {
				margin = gap
			}
		}
	}
	return margin
}

// Allocate derives the guaranteed-accuracy allocation: every layer gets
// an equal share of the decision margin divided by its worst-case
// amplification. The profile supplies only the range metadata (integer
// bits, counts) — no injection measurements are used.
func Allocate(net *nn.Network, prof *profile.Profile, ds *dataset.Dataset, evalImages int) (*core.Allocation, error) {
	margin := DecisionMargin(net, ds, evalImages)
	if margin <= 0 || math.IsInf(margin, 1) {
		return nil, fmt.Errorf("bound: degenerate decision margin %g", margin)
	}
	amp := Amplification(net)
	L := prof.NumLayers()
	a := &core.Allocation{NetName: prof.NetName, Objective: "worst_case_bound"}
	for k := range prof.Layers {
		lp := &prof.Layers[k]
		g, ok := amp[lp.NodeID]
		if !ok || g <= 0 {
			return nil, fmt.Errorf("bound: no amplification for node %d", lp.NodeID)
		}
		delta := margin / (float64(L) * g)
		f := fixedpoint.Format{IntBits: lp.IntBits, FracBits: fixedpoint.FracBitsForDelta(delta)}
		a.Layers = append(a.Layers, core.LayerAlloc{
			NodeID: lp.NodeID,
			Name:   lp.Name,
			Delta:  delta,
			Format: f,
			Bits:   f.Width(),
			Inputs: lp.Inputs,
			MACs:   lp.MACs,
		})
	}
	return a, nil
}
