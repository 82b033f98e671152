package exec

import (
	"context"

	"mupod/internal/dataset"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/tensor"
)

// Pool is an Evaluator with one Session per worker over one shared
// Plan, each Session built on its worker's first item. Map's worker
// index selects the Session, so no Session is ever used by two
// goroutines at once. The Pool leaves tracing to its callers (see
// Session.Trace).
type Pool struct {
	*Evaluator
	plan     *Plan
	pol      kernels.Policy
	sessions []*Session
}

// NewPool creates a pool of workers goroutines (<= 0 selects
// GOMAXPROCS) executing net on the kernel backend pol resolves to. A
// zero pol.IntraWorkers becomes kernels.IntraBudget(workers): items
// across workers have priority, and intra-op tiling spends the cores
// they leave idle. pol must be valid (see NewSessionPolicy).
func NewPool(net *nn.Network, workers int, pol kernels.Policy) *Pool {
	ev := NewEvaluator(workers)
	if pol.IntraWorkers == 0 {
		pol.IntraWorkers = kernels.IntraBudget(ev.Workers())
	}
	return &Pool{
		Evaluator: ev,
		plan:      NewPlan(net),
		pol:       pol,
		sessions:  make([]*Session, ev.Workers()),
	}
}

// Session returns worker's Session, creating it on first use. Call it
// only from the goroutine Map runs worker's items on.
func (p *Pool) Session(worker int) *Session {
	if p.sessions[worker] == nil {
		p.sessions[worker] = NewSessionPolicy(p.plan, p.pol)
	}
	return p.sessions[worker]
}

// Accuracy measures top-1 accuracy over the first n images of ds (all
// of them when n <= 0 or n > ds.Len()), in batches of batchSize
// (default 32) mapped across the pool. planFor (optional) gives batch
// b's injection plan; a plan of stateful injectors must be used by its
// own batch only, or the pool must have one worker. observe (optional)
// is handed batch b's logits before they are counted; they belong to
// the worker's Session, so it must copy what it keeps. Per-batch
// counts are summed in batch order, so the result is bit-identical at
// every worker count.
func (p *Pool) Accuracy(ctx context.Context, ds *dataset.Dataset, n, batchSize int,
	planFor func(b int) map[int]nn.Injector, observe func(b int, logits *tensor.Tensor)) (float64, error) {
	if n <= 0 || n > ds.Len() {
		n = ds.Len()
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	nBatches := (n + batchSize - 1) / batchSize
	correct := make([]int, nBatches)
	err := p.Map(ctx, nBatches, func(ctx context.Context, worker, b int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := b * batchSize
		size := min(batchSize, n-start)
		var plan map[int]nn.Injector
		if planFor != nil {
			plan = planFor(b)
		}
		logits := p.Session(worker).Forward(ds.Batch(start, size), plan)
		if observe != nil {
			observe(b, logits)
		}
		correct[b] = Hits(logits, ds.Labels[start:start+size])
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range correct {
		total += c
	}
	return float64(total) / float64(n), nil
}

// Hits counts the rows of logits whose argmax equals the row's label:
// the one top-1 count behind Pool.Accuracy and the σ search's Scheme 2
// probes.
func Hits(logits *tensor.Tensor, labels []int) int {
	hits := 0
	for i, pred := range nn.Argmax(logits) {
		if pred == labels[i] {
			hits++
		}
	}
	return hits
}

// Accuracy measures top-1 accuracy of net over the first n images of ds
// (all of them when n <= 0 or n > ds.Len()), in batches of batchSize,
// with the inject plan applied to every batch (nil = exact). Batches
// run on workers goroutines (<= 0 selects GOMAXPROCS) on the kernel
// backend pol resolves to, and the result is bit-identical at every
// worker count and policy. Concurrent batches call the same injectors,
// so a plan of stateful injectors (ones that carry an RNG) needs one
// worker; quantizing injectors are stateless.
func Accuracy(ctx context.Context, workers int, pol kernels.Policy, net *nn.Network,
	ds *dataset.Dataset, n, batchSize int, inject map[int]nn.Injector) (float64, error) {
	return NewPool(net, workers, pol).Accuracy(ctx, ds, n, batchSize,
		func(int) map[int]nn.Injector { return inject }, nil)
}
