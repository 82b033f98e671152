// Package cli holds the run flags the pipeline commands share:
// -workers, -kernel, -intra-workers, -log and -trace, plus the setup
// and exit-status handling that goes with them.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mupod/internal/kernels"
	"mupod/internal/obs"
)

// Exit statuses: a bad -kernel or -intra-workers is a usage error, an
// interrupt is 128+SIGINT, anything else is 1.
const (
	exitFailure     = 1
	exitUsage       = 2
	exitInterrupted = 130
)

// Indirections for tests.
var (
	exit             = os.Exit
	stderr io.Writer = os.Stderr
)

// Run is one command's shared run flags and, once started, the context
// its work runs under.
type Run struct {
	Workers int            // -workers: evaluation worker count
	Kernel  kernels.Policy // -kernel and -intra-workers
	Trace   string         // -trace: Chrome trace-event output path

	prog    string
	logSpec string // -log: level[,format]
	ctx     context.Context
	flush   func() error
}

// Flags registers the shared run flags on flag.CommandLine for the
// command prog, which prefixes its error messages.
func Flags(prog string) *Run {
	r := &Run{prog: prog}
	flag.IntVar(&r.Workers, "workers", 0, "evaluation worker count (0 = all CPUs; results are identical at any count)")
	flag.StringVar(&r.Kernel.Impl, "kernel", "", "forward-pass compute backend: "+strings.Join(kernels.Names(), ", ")+" (default "+kernels.DefaultImpl+")")
	flag.IntVar(&r.Kernel.IntraWorkers, "intra-workers", 0, "goroutines the parallel kernel spends inside one layer (0 = automatic)")
	flag.StringVar(&r.logSpec, "log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	flag.StringVar(&r.Trace, "trace", "", "write a Chrome trace-event file of the run to this path")
	return r
}

// Start validates the kernel policy (exit status 2), sets up logging,
// and returns the context to run under: it records spans when -trace is
// set and is cancelled on SIGINT or SIGTERM for the rest of the
// process. Call it after flag.Parse.
func (r *Run) Start() context.Context {
	if err := r.Kernel.Validate(); err != nil {
		r.fail(exitUsage, err)
	}
	if _, err := obs.Setup(r.logSpec); err != nil {
		r.fail(exitFailure, err)
	}
	ctx, flush := obs.TraceToFile(context.Background(), r.Trace, 0)
	// The handler stays until the process exits, as a deferred stop in
	// main would; stopping it earlier would cancel ctx and make Check
	// report any later error as an interrupt.
	r.ctx, _ = obs.SignalContext(ctx)
	r.flush = flush
	return r.ctx
}

// Check exits when err is non-nil: with status 130 if the run was
// interrupted, 1 otherwise.
func (r *Run) Check(err error) {
	if err == nil {
		return
	}
	if r.ctx != nil && obs.Interrupted(r.ctx) {
		fmt.Fprintf(stderr, "%s: interrupted\n", r.prog)
		exit(exitInterrupted)
	}
	r.fail(exitFailure, err)
}

// Finish writes the -trace file, if any (exit status 1 on failure).
func (r *Run) Finish() {
	if err := r.flush(); err != nil {
		r.fail(exitFailure, fmt.Errorf("writing trace: %w", err))
	}
}

func (r *Run) fail(code int, err error) {
	fmt.Fprintf(stderr, "%s: %v\n", r.prog, err)
	exit(code)
}
