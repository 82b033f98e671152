// Package fxnet executes a network in ACTUAL fixed-point integer
// arithmetic. Everywhere else in this repository quantization is
// simulated in float64 (values are rounded to the format's grid but
// multiplied/accumulated as floats); fxnet instead scales each
// analyzable layer's inputs and weights to int64, runs the dot products
// entirely in the integer domain, and rescales at the end — the
// datapath a hardware MAC array (the paper's target) really has.
//
// Two things come out of this:
//
//  1. Cross-validation: for formats narrow enough that products stay
//     exactly representable, the integer path must agree with the
//     float-simulated path bit for bit — a strong end-to-end check on
//     the whole simulation methodology (see the equivalence test).
//  2. Accumulator sizing: the widest partial sum each layer produces
//     determines the accumulator width a hardware implementation needs
//     — a number the RTL designer must know and the float simulation
//     cannot provide.
package fxnet

import (
	"context"
	"fmt"
	"math"

	"mupod/internal/core"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/tensor"
)

// Config selects the weight formats of the integer path.
type Config struct {
	// WeightBits is the uniform total weight width (per-layer integer
	// part from each tensor's range), used when WeightFormats is nil.
	WeightBits int
	// WeightFormats overrides the weight format per analyzable layer
	// (indexed like the activation allocation's Layers).
	WeightFormats []fixedpoint.Format
	// Workers parallelizes Accuracy across batches (0 = GOMAXPROCS,
	// 1 = sequential). The integer path is deterministic, and batch
	// reports are merged in batch order, so the result is identical at
	// any worker count.
	Workers int
}

// LayerReport is the integer-execution audit of one layer.
type LayerReport struct {
	Name string

	InputFormat  fixedpoint.Format
	WeightFormat fixedpoint.Format

	// MaxAccMagnitude is the largest |partial sum| observed in the
	// integer accumulator; AccumulatorBits is the signed width needed
	// to hold it.
	MaxAccMagnitude int64
	AccumulatorBits int
}

// Report aggregates per-layer audits.
type Report struct {
	Layers []LayerReport
}

// MaxAccumulatorBits returns the widest accumulator any layer needs.
func (r *Report) MaxAccumulatorBits() int {
	max := 0
	for _, l := range r.Layers {
		if l.AccumulatorBits > max {
			max = l.AccumulatorBits
		}
	}
	return max
}

// Run executes net on x with every analyzable layer's dot product in
// integer arithmetic: inputs quantized to the allocation's formats,
// weights to the config's, accumulation in int64. Non-analyzable nodes
// (ReLU, pooling, add, concat, excluded FC layers) execute in float,
// as they would on the accelerator's post-processing path.
func Run(net *nn.Network, alloc *core.Allocation, cfg Config, x *tensor.Tensor) (*tensor.Tensor, *Report, error) {
	if len(alloc.Layers) == 0 {
		return nil, nil, fmt.Errorf("fxnet: empty allocation")
	}
	formats := map[int]fixedpoint.Format{}
	wFormats := map[int]fixedpoint.Format{}
	for i, la := range alloc.Layers {
		formats[la.NodeID] = la.Format
		if cfg.WeightFormats != nil {
			if len(cfg.WeightFormats) != len(alloc.Layers) {
				return nil, nil, fmt.Errorf("fxnet: %d weight formats for %d layers", len(cfg.WeightFormats), len(alloc.Layers))
			}
			wFormats[la.NodeID] = cfg.WeightFormats[i]
		} else {
			if cfg.WeightBits <= 0 {
				return nil, nil, fmt.Errorf("fxnet: WeightBits must be positive when WeightFormats is nil")
			}
			w := weightTensorOf(net.Nodes[la.NodeID].Layer)
			if w == nil {
				return nil, nil, fmt.Errorf("fxnet: node %d has no weights", la.NodeID)
			}
			ib := fixedpoint.IntBitsForRange(w.MaxAbs())
			wFormats[la.NodeID] = fixedpoint.Format{IntBits: ib, FracBits: cfg.WeightBits - ib}
		}
	}

	rep := &Report{}
	acts := make([]*tensor.Tensor, len(net.Nodes))
	acts[0] = x
	for _, nd := range net.Nodes[1:] {
		ins := make([]*tensor.Tensor, len(nd.Inputs))
		for i, in := range nd.Inputs {
			ins[i] = acts[in]
		}
		f, quantized := formats[nd.ID]
		if !quantized {
			out := tensor.New(append([]int{x.Shape[0]}, nd.Shape...)...)
			nn.ForwardLayer(kernels.Default(), nd.Layer, ins, out)
			acts[nd.ID] = out
			continue
		}
		out, lr, err := integerForward(nd, ins[0], f, wFormats[nd.ID])
		if err != nil {
			return nil, nil, fmt.Errorf("fxnet: node %s: %w", nd.Name, err)
		}
		acts[nd.ID] = out
		rep.Layers = append(rep.Layers, lr)
	}
	return acts[len(acts)-1], rep, nil
}

func weightTensorOf(l nn.Layer) *tensor.Tensor {
	switch t := l.(type) {
	case *nn.Conv2D:
		return t.W
	case *nn.DepthwiseConv2D:
		return t.W
	case *nn.Dense:
		return t.W
	default:
		return nil
	}
}

// toFixed quantizes src into integer codes: round(clamp(x)·2^F).
func toFixed(src []float64, f fixedpoint.Format) []int64 {
	out := make([]int64, len(src))
	scale := math.Exp2(float64(f.FracBits))
	for i, v := range src {
		q := f.Quantize(v)
		out[i] = int64(math.Round(q * scale))
	}
	return out
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func accBits(maxMag int64) int {
	if maxMag <= 0 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(maxMag)+1))) + 1
}

// integerForward runs one analyzable layer in the integer domain.
func integerForward(nd *nn.Node, x *tensor.Tensor, xf, wf fixedpoint.Format) (*tensor.Tensor, LayerReport, error) {
	lr := LayerReport{Name: nd.Name, InputFormat: xf, WeightFormat: wf}
	xq := toFixed(x.Data, xf)
	rescale := math.Exp2(float64(-(xf.FracBits + wf.FracBits)))

	var out *tensor.Tensor
	var maxAcc int64

	switch l := nd.Layer.(type) {
	case *nn.Conv2D:
		wq := toFixed(l.W.Data, wf)
		N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
		os := l.OutShape([][]int{x.Shape})
		out = tensor.New(os...)
		OH, OW := os[2], os[3]
		for n := 0; n < N; n++ {
			for oc := 0; oc < l.OutC; oc++ {
				for oh := 0; oh < OH; oh++ {
					ihBase := oh*l.Stride - l.Pad
					for ow := 0; ow < OW; ow++ {
						iwBase := ow*l.Stride - l.Pad
						var acc int64
						for ic := 0; ic < l.InC; ic++ {
							xBase := ((n*l.InC + ic) * H) * W
							wBase := ((oc*l.InC + ic) * l.K) * l.K
							for kh := 0; kh < l.K; kh++ {
								ih := ihBase + kh
								if ih < 0 || ih >= H {
									continue
								}
								xRow := xBase + ih*W
								wRow := wBase + kh*l.K
								for kw := 0; kw < l.K; kw++ {
									iw := iwBase + kw
									if iw < 0 || iw >= W {
										continue
									}
									acc += xq[xRow+iw] * wq[wRow+kw]
									if a := absI64(acc); a > maxAcc {
										maxAcc = a
									}
								}
							}
						}
						// Bias joins after the integer MAC chain, at
						// full precision (hardware folds it into the
						// accumulator initialization).
						out.Data[((n*l.OutC+oc)*OH+oh)*OW+ow] = float64(acc)*rescale + l.B.Data[oc]
					}
				}
			}
		}
	case *nn.DepthwiseConv2D:
		wq := toFixed(l.W.Data, wf)
		N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
		os := l.OutShape([][]int{x.Shape})
		out = tensor.New(os...)
		OH, OW := os[2], os[3]
		for n := 0; n < N; n++ {
			for c := 0; c < l.C; c++ {
				xBase := ((n*l.C + c) * H) * W
				wBase := c * l.K * l.K
				for oh := 0; oh < OH; oh++ {
					ihBase := oh*l.Stride - l.Pad
					for ow := 0; ow < OW; ow++ {
						iwBase := ow*l.Stride - l.Pad
						var acc int64
						for kh := 0; kh < l.K; kh++ {
							ih := ihBase + kh
							if ih < 0 || ih >= H {
								continue
							}
							xRow := xBase + ih*W
							wRow := wBase + kh*l.K
							for kw := 0; kw < l.K; kw++ {
								iw := iwBase + kw
								if iw < 0 || iw >= W {
									continue
								}
								acc += xq[xRow+iw] * wq[wRow+kw]
								if a := absI64(acc); a > maxAcc {
									maxAcc = a
								}
							}
						}
						out.Data[((n*l.C+c)*OH+oh)*OW+ow] = float64(acc)*rescale + l.B.Data[c]
					}
				}
			}
		}
	case *nn.Dense:
		wq := toFixed(l.W.Data, wf)
		N := x.Shape[0]
		out = tensor.New(N, l.Out)
		for n := 0; n < N; n++ {
			for o := 0; o < l.Out; o++ {
				var acc int64
				for i := 0; i < l.In; i++ {
					acc += xq[n*l.In+i] * wq[o*l.In+i]
					if a := absI64(acc); a > maxAcc {
						maxAcc = a
					}
				}
				out.Data[n*l.Out+o] = float64(acc)*rescale + l.B.Data[o]
			}
		}
	default:
		return nil, lr, fmt.Errorf("unsupported integer layer kind %q", nd.Layer.Kind())
	}

	lr.MaxAccMagnitude = maxAcc
	lr.AccumulatorBits = accBits(maxAcc)
	return out, lr, nil
}

// Accuracy runs the integer path over the first n images of a labelled
// batch provider and returns top-1 accuracy plus the worst-case
// accumulator report across batches.
func Accuracy(net *nn.Network, alloc *core.Allocation, cfg Config, images *tensor.Tensor, labels []int, batchSize int) (float64, *Report, error) {
	n := images.Shape[0]
	if len(labels) != n {
		return 0, nil, fmt.Errorf("fxnet: %d labels for %d images", len(labels), n)
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	stride := 1
	for _, d := range images.Shape[1:] {
		stride *= d
	}
	batches := (n + batchSize - 1) / batchSize
	counts := make([]int, batches)
	reports := make([]*Report, batches)
	// Run is pure (it never mutates the network), so batches evaluate
	// independently on the worker pool; per-batch results land in
	// deterministic slots and merge in batch order below.
	err := exec.NewEvaluator(cfg.Workers).Map(context.Background(), batches, func(_ context.Context, _, bi int) error {
		start := bi * batchSize
		b := batchSize
		if start+b > n {
			b = n - start
		}
		batch := tensor.FromSlice(images.Data[start*stride:(start+b)*stride], append([]int{b}, images.Shape[1:]...)...)
		logits, rep, err := Run(net, alloc, cfg, batch)
		if err != nil {
			return err
		}
		reports[bi] = rep
		for i, p := range nn.Argmax(logits) {
			if p == labels[start+i] {
				counts[bi]++
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	correct := 0
	total := &Report{}
	for bi := 0; bi < batches; bi++ {
		correct += counts[bi]
		mergeReports(total, reports[bi])
	}
	return float64(correct) / float64(n), total, nil
}

func mergeReports(dst, src *Report) {
	if len(dst.Layers) == 0 {
		dst.Layers = append(dst.Layers, src.Layers...)
		return
	}
	for i := range src.Layers {
		if src.Layers[i].MaxAccMagnitude > dst.Layers[i].MaxAccMagnitude {
			dst.Layers[i].MaxAccMagnitude = src.Layers[i].MaxAccMagnitude
			dst.Layers[i].AccumulatorBits = src.Layers[i].AccumulatorBits
		}
	}
}
