// Package mupod is an open-source reimplementation of "Multi-objective
// Precision Optimization of Deep Neural Networks for Edge Devices"
// (Ho, Vaddi, Wong — DATE 2019): post-training, layer-granular
// fixed-point bitwidth allocation for CNN inference, driven by a
// measurable statistical property of rounding-error propagation.
//
// The method in one paragraph: quantizing the inputs of layer K to a
// fixed-point format adds uniform noise with boundary Δ_XK; that noise
// arrives at the network output as an approximately Gaussian error
// whose standard deviation σ_{Y_K→Ł} relates LINEARLY to Δ_XK
// (Δ_XK ≈ λ_K·σ_{Y_K→Ł} + θ_K, Eq. 5 — constants measurable by error
// injection and linear regression). Given a user accuracy constraint,
// a binary search finds the tolerable output error σ_YŁ, a convex
// optimization splits that budget across layers to minimize any
// ρ-weighted bit count (bandwidth, MAC energy, or a custom criterion),
// and Eq. 7 converts each layer's share into a concrete I.F format.
//
// Quick start:
//
//	net := mupod.MustLoad(mupod.AlexNet)          // trained model zoo
//	_, test := mupod.Data(mupod.AlexNet)          // synthetic dataset
//	res, err := mupod.Run(net, test, mupod.Config{
//	    Search:    mupod.SearchOptions{RelDrop: 0.01},
//	    Objective: mupod.MinimizeMACBits,
//	})
//	fmt.Println(res.Allocation.Bits())            // per-layer widths
//	acc := res.Allocation.Validate(net, test, 0)  // real quantized inference
//
// The facade re-exports the full pipeline; the implementation lives in
// internal/{profile,search,optimize,core,...} — see DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
package mupod

import (
	"context"
	"io"
	"net/http"

	"mupod/internal/accel"
	"mupod/internal/baseline"
	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/energy"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/fxnet"
	"mupod/internal/kernels"
	"mupod/internal/netdesc"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/optimize"
	"mupod/internal/pareto"
	"mupod/internal/profile"
	"mupod/internal/refcheck"
	"mupod/internal/search"
	"mupod/internal/serve"
	"mupod/internal/tensor"
	"mupod/internal/weights"
	"mupod/internal/zoo"
)

// Core pipeline types.
type (
	// Network is the CNN inference DAG (see internal/nn).
	Network = nn.Network
	// Tensor is a dense float64 NCHW array (see internal/tensor).
	Tensor = tensor.Tensor
	// Dataset is a labelled image split (see internal/dataset).
	Dataset = dataset.Dataset
	// Profile holds the fitted λ_K/θ_K error model of every layer.
	Profile = profile.Profile
	// LayerProfile is one layer's fitted model and counts.
	LayerProfile = profile.LayerProfile
	// ProfileConfig tunes the error-injection measurement.
	ProfileConfig = profile.Config
	// SearchOptions tunes the σ_YŁ binary search.
	SearchOptions = search.Options
	// SearchResult reports the found σ_YŁ and the search trace.
	SearchResult = search.Result
	// Config collects the tunables of a full pipeline run.
	Config = core.Config
	// Result is the output of a full pipeline run.
	Result = core.Result
	// Allocation is a complete per-layer bitwidth assignment.
	Allocation = core.Allocation
	// LayerAlloc is one layer's assigned format and metadata.
	LayerAlloc = core.LayerAlloc
	// Objective selects the ρ weights of Eq. 8.
	Objective = core.Objective
	// Format is a signed fixed-point format I.F.
	Format = fixedpoint.Format
	// Scheme selects the σ→accuracy validation procedure.
	Scheme = search.Scheme
	// Arch names a model-zoo architecture.
	Arch = zoo.Arch
	// MACModel is the bitwidth-dependent MAC energy model.
	MACModel = energy.MACModel
	// AccelConfig describes the bit-serial accelerator simulator.
	AccelConfig = accel.Config
	// AccelReport is the simulated execution of an allocation.
	AccelReport = accel.Report
	// BaselineOptions tunes the comparison searches.
	BaselineOptions = baseline.Options
	// BaselineResult wraps a baseline allocation with its search cost.
	BaselineResult = baseline.SearchResult

	// WeightProfile holds the per-layer weight-noise model (the
	// repository's joint activation+weight extension).
	WeightProfile = weights.Profile
	// WeightAllocation assigns a fixed-point format to every layer's
	// weights.
	WeightAllocation = weights.Allocation
	// JointConfig tunes the joint activation+weight allocation.
	JointConfig = weights.JointConfig
	// ParetoPoint is one operating point of the two-objective frontier.
	ParetoPoint = pareto.Point
	// ParetoConfig tunes the frontier sweep.
	ParetoConfig = pareto.Config
	// ParetoNSGA2Config tunes the genetic front search.
	ParetoNSGA2Config = pareto.NSGA2Config
	// ParetoNSGA2Result is a finished genetic front search.
	ParetoNSGA2Result = pareto.NSGA2Result
	// FixedPointConfig selects the weight formats of the integer
	// execution path.
	FixedPointConfig = fxnet.Config
	// FixedPointReport audits integer execution (accumulator widths).
	FixedPointReport = fxnet.Report

	// ServeConfig tunes the asynchronous job manager (worker pool,
	// queue depth, per-stage timeouts, profile-cache capacity).
	ServeConfig = serve.Config
	// ServeRequest is one precision-optimization job submission.
	ServeRequest = serve.JobRequest
	// ServeJob is a job moving through the queue.
	ServeJob = serve.Job
	// ServeJobView is the JSON snapshot of a job.
	ServeJobView = serve.JobView
	// ServeJobResult is the payload of a finished job.
	ServeJobResult = serve.JobResult
	// ServeState is a job lifecycle state (queued → running → done /
	// failed / cancelled).
	ServeState = serve.State
	// JobManager owns the job table, queue and worker pool.
	JobManager = serve.Manager

	// KernelPolicy sets how many goroutines one kernel call of a
	// forward pass may use: "blocked" (the zero value's default) runs
	// serially, "parallel" shards each call across IntraWorkers
	// goroutines. Every policy gives the same bits. Set it on
	// Config.Kernel, ProfileConfig.Kernel, SearchOptions.Kernel,
	// BaselineOptions.Kernel or ServeConfig.Kernel (see
	// internal/kernels).
	KernelPolicy = kernels.Policy

	// MetricsRegistry is the shared Prometheus-style metrics registry
	// (see internal/obs).
	MetricsRegistry = obs.Registry
	// LatencyHistogram is an HDR-style log-linear latency recorder:
	// lock-free Observe, ≤1/32 relative bucketing error from nanoseconds
	// to hours, mergeable snapshots with exact-count quantiles.
	LatencyHistogram = obs.LatencyHistogram
	// LatencySnapshot is a point-in-time, mergeable copy of a
	// LatencyHistogram (p50/p90/p99/p999 queries, min/max/mean).
	LatencySnapshot = obs.LatencySnapshot
	// Tracer records pipeline spans for Chrome trace-event export.
	Tracer = obs.Tracer
	// Span is one timed region of a traced pipeline run.
	Span = obs.Span
)

// Accelerator execution styles.
const (
	StripesMode = accel.Stripes
	LoomMode    = accel.Loom
)

// Objectives (Sec. V-D).
const (
	MinimizeInputBits = core.MinimizeInputBits
	MinimizeMACBits   = core.MinimizeMACBits
	CustomRho         = core.CustomRho
)

// Validation schemes (Sec. V-C).
const (
	Scheme1Uniform  = search.Scheme1Uniform
	Scheme2Gaussian = search.Scheme2Gaussian
)

// Model zoo architectures (Table III).
const (
	AlexNet    = zoo.AlexNet
	NiN        = zoo.NiN
	GoogleNet  = zoo.GoogleNet
	VGG19      = zoo.VGG19
	ResNet50   = zoo.ResNet50
	ResNet152  = zoo.ResNet152
	SqueezeNet = zoo.SqueezeNet
	MobileNet  = zoo.MobileNet
)

// Architectures lists the zoo in Table III order.
var Architectures = zoo.All

// Default40nm is the MAC energy model calibrated per DESIGN.md.
var Default40nm = energy.Default40nm

// MustLoad returns the trained zoo network for an architecture,
// training it on first use (deterministic; results are cached).
func MustLoad(a Arch) *Network { return zoo.MustLoad(a) }

// Data returns the train/test splits used with an architecture.
func Data(a Arch) (train, test *Dataset) { return zoo.Data(a) }

// Run executes the complete pipeline: profile → σ search → ξ
// optimization → allocation (Sec. V). Set cfg.Workers to fan the
// profiling replays and accuracy evaluations across a worker pool
// (0 = GOMAXPROCS); every stage is engineered to be bit-identical at
// any worker count, so parallelism only trades CPU for latency.
func Run(net *Network, ds *Dataset, cfg Config) (*Result, error) {
	return core.Run(net, ds, cfg)
}

// RunContext is Run with cancellation threaded through every stage.
func RunContext(ctx context.Context, net *Network, ds *Dataset, cfg Config) (*Result, error) {
	return core.RunContext(ctx, net, ds, cfg)
}

// ProfileNetwork measures λ_K and θ_K for every analyzable layer
// (Sec. V-A).
func ProfileNetwork(net *Network, ds *Dataset, cfg ProfileConfig) (*Profile, error) {
	return profile.Run(net, ds, cfg)
}

// ProfileNetworkContext is ProfileNetwork with cancellation (ctx is
// checked between injection replays).
func ProfileNetworkContext(ctx context.Context, net *Network, ds *Dataset, cfg ProfileConfig) (*Profile, error) {
	return profile.RunContext(ctx, net, ds, cfg)
}

// SearchSigma binary-searches the output error budget σ_YŁ that meets
// the accuracy constraint (Sec. V-C).
func SearchSigma(net *Network, prof *Profile, ds *Dataset, opts SearchOptions) (*SearchResult, error) {
	return search.Run(net, prof, ds, opts)
}

// SearchSigmaContext is SearchSigma with cancellation (ctx is checked
// before every accuracy evaluation).
func SearchSigmaContext(ctx context.Context, net *Network, prof *Profile, ds *Dataset, opts SearchOptions) (*SearchResult, error) {
	return search.RunContext(ctx, net, prof, ds, opts)
}

// OptimizeXi solves Eq. 8 and returns the optimal error decomposition.
func OptimizeXi(prof *Profile, sigmaYL float64, cfg Config) ([]float64, error) {
	xi, _, err := core.OptimizeXi(context.Background(), prof, sigmaYL, cfg)
	return xi, err
}

// AllocationFromXi converts a ξ decomposition into concrete formats.
func AllocationFromXi(prof *Profile, sigmaYL float64, xi []float64, objective string) (*Allocation, error) {
	return core.FromXi(prof, sigmaYL, xi, objective, 0)
}

// AllocateGuarded solves ξ for the searched σ and, when cfg.Guard is
// set, shrinks σ until the allocation passes REAL quantized validation
// (see core.Allocate). Use this instead of OptimizeXi+AllocationFromXi
// when reusing one profile across several constraints or objectives.
func AllocateGuarded(net *Network, ds *Dataset, prof *Profile, sr *SearchResult, cfg Config) (*Allocation, error) {
	alloc, _, _, err := core.Allocate(net, ds, prof, sr, cfg)
	return alloc, err
}

// AllocateGuardedContext is AllocateGuarded with cancellation (the
// guard loop checks ctx before every validation pass).
func AllocateGuardedContext(ctx context.Context, net *Network, ds *Dataset, prof *Profile, sr *SearchResult, cfg Config) (*Allocation, error) {
	alloc, _, _, err := core.AllocateContext(ctx, net, ds, prof, sr, cfg)
	return alloc, err
}

// NewJobManager starts the asynchronous job manager of the serving
// subsystem: a bounded queue drained by a worker pool, sharing
// profiling work through a content-addressed cache (internal/serve).
// With cfg.DataDir set the job table is durable across restarts; the
// error is non-nil only when that durable state cannot be opened.
func NewJobManager(cfg ServeConfig) (*JobManager, error) { return serve.New(cfg) }

// NewServeHandler exposes a job manager over HTTP — the API cmd/mupodd
// serves (POST/GET/DELETE /v1/jobs, /healthz, /metrics).
func NewServeHandler(m *JobManager) http.Handler { return serve.NewHandler(m) }

// UniformAllocation builds the smallest-uniform-bitwidth style baseline
// assignment at the given total width.
func UniformAllocation(prof *Profile, bits int) *Allocation { return core.Uniform(prof, bits) }

// SmallestUniform finds the narrowest uniform bitwidth meeting the
// constraint (the paper's fallback baseline).
func SmallestUniform(net *Network, prof *Profile, ds *Dataset, o BaselineOptions) (*BaselineResult, error) {
	return baseline.SmallestUniform(net, prof, ds, o)
}

// StripesSearch runs the expensive per-layer dynamic search the paper
// competes against.
func StripesSearch(net *Network, prof *Profile, ds *Dataset, o BaselineOptions) (*BaselineResult, error) {
	return baseline.StripesSearch(net, prof, ds, o)
}

// UniformWeightSearch finds the smallest uniform weight bitwidth that,
// combined with the given activation allocation, meets the constraint
// (Sec. V-E).
func UniformWeightSearch(net *Network, alloc *Allocation, ds *Dataset, o BaselineOptions) (int, error) {
	return baseline.UniformWeightSearch(net, alloc, ds, o)
}

// SimulateAccelerator runs an allocation through the bit-serial
// (Stripes- or Loom-style) accelerator model.
func SimulateAccelerator(alloc *Allocation, cfg AccelConfig) (*AccelReport, error) {
	return accel.Simulate(alloc, cfg)
}

// ProfileWeights measures the weight-noise propagation constants of
// every analyzable layer (the joint-quantization extension). net is
// only read: each replay perturbs a worker-private copy of one layer's
// weights, so the sweep runs on cfg.Workers goroutines.
func ProfileWeights(net *Network, ds *Dataset, cfg ProfileConfig) (*WeightProfile, error) {
	return weights.Run(net, ds, cfg)
}

// JointAllocate splits one output-error budget across both the
// activations and the weights of every layer (2Ł noise sources).
func JointAllocate(aprof *Profile, wprof *WeightProfile, sigmaYL float64, cfg JointConfig) (*Allocation, *WeightAllocation, error) {
	return weights.JointAllocate(aprof, wprof, sigmaYL, cfg)
}

// ValidateJoint measures real accuracy with both the activation and the
// weight formats applied.
func ValidateJoint(net *Network, ds *Dataset, n int, act *Allocation, w *WeightAllocation) float64 {
	return weights.Validate(net, ds, n, act, w)
}

// ParetoSweep solves a blend of the bandwidth and energy objectives for
// each α and returns one operating point per α.
func ParetoSweep(prof *Profile, sigmaYL float64, cfg ParetoConfig) ([]ParetoPoint, error) {
	return pareto.Sweep(prof, sigmaYL, cfg)
}

// ParetoFront filters sweep results to the non-dominated frontier.
func ParetoFront(points []ParetoPoint) []ParetoPoint {
	return pareto.NonDominated(points)
}

// ParetoNSGA2 runs the genetic front search, warm-started from the
// α-sweep: the archive of every evaluated point is filtered to the
// returned frontier, so its hypervolume weakly dominates the sweep's.
// Results are bit-identical at any worker count.
func ParetoNSGA2(ctx context.Context, prof *Profile, sigmaYL float64, cfg ParetoNSGA2Config) (*ParetoNSGA2Result, error) {
	return pareto.RunNSGA2(ctx, prof, sigmaYL, cfg)
}

// ParetoRefPoint picks a hypervolume reference point dominated by every
// finite point of the given fronts, with margin.
func ParetoRefPoint(fronts ...[]ParetoPoint) [2]float64 {
	return pareto.RefPoint(fronts...)
}

// ParetoHypervolume measures the area a frontier dominates up to ref —
// the standard scalar quality of a two-objective front (larger is
// better).
func ParetoHypervolume(points []ParetoPoint, ref [2]float64) float64 {
	return pareto.Hypervolume(points, ref)
}

// ParetoGD and ParetoIGD score a front against a reference front:
// generational distance is the mean distance from the front to the
// reference (convergence), inverted GD the reverse (coverage).
func ParetoGD(front, ref []ParetoPoint) float64 {
	return pareto.GenerationalDistance(front, ref)
}

// ParetoIGD is the inverted generational distance (see ParetoGD).
func ParetoIGD(front, ref []ParetoPoint) float64 {
	return pareto.InvertedGenerationalDistance(front, ref)
}

// ParetoSpread measures how evenly a front's points are distributed
// along the frontier (0 = perfectly uniform).
func ParetoSpread(points []ParetoPoint) float64 {
	return pareto.Spread(points)
}

// RunFixedPoint executes the network with TRUE integer arithmetic in
// every analyzable layer (inputs and weights scaled to int64,
// accumulation in the integer domain) and returns the logits plus the
// per-layer accumulator-width audit a hardware implementation needs.
func RunFixedPoint(net *Network, alloc *Allocation, cfg FixedPointConfig, x *Tensor) (*Tensor, *FixedPointReport, error) {
	return fxnet.Run(net, alloc, cfg, x)
}

// NewMetricsRegistry builds an empty metrics registry. Pass it to
// EnableEngineMetrics to collect the execution-engine and solver
// counters, and render it with (*MetricsRegistry).Write — the output is
// Prometheus text format.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewLatencyHistogram builds an unregistered latency histogram for
// client-side recording (cmd/mupod-loadgen uses these). For one that
// renders on a /metrics page use
// (*MetricsRegistry).LatencyHistogram(name, help, labels...).
func NewLatencyHistogram() *LatencyHistogram { return obs.NewLatencyHistogram() }

// RegisterRuntimeMetrics attaches the Go runtime gauges
// (mupod_go_goroutines, mupod_go_heap_bytes, mupod_go_gc_pause_seconds)
// to reg. The serving subsystem registers them on its own registry, so
// embedders running a JobManager need not call this themselves.
func RegisterRuntimeMetrics(reg *MetricsRegistry) { obs.RegisterRuntimeMetrics(reg) }

// EnableEngineMetrics registers the process-wide execution-engine
// counters (forwards, arena reuse, evaluator items/busy-seconds),
// compute-kernel dispatch counters and solver iteration counters on
// reg. Last call wins; the serving subsystem calls this on its own
// registry, so embedders running a JobManager need not call it
// themselves.
func EnableEngineMetrics(reg *MetricsRegistry) {
	exec.EnableMetrics(reg)
	kernels.EnableMetrics(reg)
	optimize.EnableMetrics(reg)
}

// KernelBackends lists the accepted KernelPolicy names ("blocked",
// "parallel"), sorted; KernelDefault is the one a zero KernelPolicy
// selects. Both run the same kernels and give the same bits at any
// worker count; they differ only in intra-op parallelism.
func KernelBackends() []string { return kernels.Names() }

// KernelDefault is the backend name a zero KernelPolicy resolves to.
const KernelDefault = kernels.DefaultImpl

// NewTracer builds a span recorder holding up to maxSpans spans
// (<= 0 uses the default cap). Attach it with WithTracer; any pipeline
// stage run under that context records spans.
func NewTracer(maxSpans int) *Tracer { return obs.NewTracer(maxSpans) }

// WithTracer returns a context whose pipeline runs record spans into tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return obs.WithTracer(ctx, tr)
}

// SetupLogging installs the process slog default logger from a
// "level[,format]" spec (empty uses $MUPOD_LOG, then "info,text").
func SetupLogging(spec string) error {
	_, err := obs.Setup(spec)
	return err
}

// TraceToFile arms span recording on ctx and returns a flush function
// that writes the collected spans as a Chrome trace-event file (load it
// in chrome://tracing or ui.perfetto.dev). An empty path disables
// tracing; flush is then a no-op.
func TraceToFile(ctx context.Context, path string) (context.Context, func() error) {
	return obs.TraceToFile(ctx, path, 0)
}

// ParseNetwork reads a network description (see internal/netdesc for
// the format) and builds the network.
func ParseNetwork(r io.Reader) (*Network, error) { return netdesc.Parse(r) }

// WriteNetwork serializes a network's topology into the description
// language (parameters are saved separately via Network.SaveParams).
func WriteNetwork(w io.Writer, net *Network) error { return netdesc.Write(w, net) }

// SelfCheckOptions configures a differential self-check sweep (see
// internal/refcheck).
type SelfCheckOptions = refcheck.Options

// SelfCheckReport is the outcome of a self-check sweep; OK() reports
// whether every invariant held.
type SelfCheckReport = refcheck.Report

// SelfCheck runs the differential self-check: the optimized kernels,
// quantizer, solvers and search are verified against slow reference
// implementations and the paper's numerical invariants over the
// built-in test networks. Embedders can run it at startup or in CI to
// catch miscompiled or numerically-broken builds; cmd/mupod-selfcheck
// wraps it for the command line.
func SelfCheck(ctx context.Context, opts SelfCheckOptions) (*SelfCheckReport, error) {
	return refcheck.Run(ctx, opts)
}
