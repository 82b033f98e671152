package kernels

import (
	"sync/atomic"

	"mupod/internal/obs"
)

// implID / opID index the dispatch counter matrix. implID is the
// policy name a Backend was resolved from. The hot-path hook is one
// atomic pointer load, a branch, and (when enabled) one counter
// increment per layer-level kernel call — never per inner-loop
// iteration.
type implID int

const (
	implBlocked implID = iota // zero: the default policy
	implParallel
	numImpls
)

var implNames = [numImpls]string{"blocked", "parallel"}

type opID int

const (
	opGEMM opID = iota
	opDWConv
	opDense
	opFan
	numOps
)

var opNames = [numOps]string{"gemm", "dwconv", "dense", "fan"}

// Metrics is the kernel-layer counter set:
// mupod_kernel_dispatch_total{impl,op} counts kernel invocations per
// policy name and operation.
type Metrics struct {
	dispatch [numImpls][numOps]*obs.Counter
}

// Dispatch returns the counter for one (impl, op) label pair, or nil
// for labels outside the built-in matrix. Exposed for tests.
func (m *Metrics) Dispatch(impl, op string) *obs.Counter {
	for i, in := range implNames {
		if in != impl {
			continue
		}
		for o, on := range opNames {
			if on == op {
				return m.dispatch[i][o]
			}
		}
	}
	return nil
}

var metricsPtr atomic.Pointer[Metrics]

// EnableMetrics registers the kernel dispatch counters on r and makes
// them the process-wide active set (last call wins), returning it.
func EnableMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{}
	const help = "Kernel invocations by backend implementation and operation."
	for i := implID(0); i < numImpls; i++ {
		for o := opID(0); o < numOps; o++ {
			m.dispatch[i][o] = r.Counter("mupod_kernel_dispatch_total", help,
				"impl", implNames[i], "op", opNames[o])
		}
	}
	metricsPtr.Store(m)
	return m
}

// DisableMetrics detaches the active counter set; countDispatch
// returns to its disabled (load + branch) cost.
func DisableMetrics() { metricsPtr.Store(nil) }

func countDispatch(impl implID, op opID) {
	m := metricsPtr.Load()
	if m == nil {
		return
	}
	m.dispatch[impl][op].Add(1)
}
