package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mupod/internal/kernels"
	"mupod/internal/obs"
)

// exited is the panic value the stubbed exit raises.
type exited int

// withFlags runs parse-and-start on a fresh flag.CommandLine with the
// exit and stderr indirections stubbed, returning the exit status (-1
// when f returned normally) and what was written to stderr.
func withFlags(t *testing.T, args []string, f func(r *Run)) (code int, errOut string) {
	t.Helper()
	saved, savedExit, savedErr := flag.CommandLine, exit, stderr
	t.Cleanup(func() { flag.CommandLine, exit, stderr = saved, savedExit, savedErr })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	var buf bytes.Buffer
	stderr = &buf
	exit = func(c int) { panic(exited(c)) }
	r := Flags("mupod-test")
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	code = -1
	func() {
		defer func() {
			if v := recover(); v != nil {
				c, ok := v.(exited)
				if !ok {
					panic(v)
				}
				code = int(c)
			}
		}()
		f(r)
	}()
	return code, buf.String()
}

func TestFlagsParseIntoRun(t *testing.T) {
	code, _ := withFlags(t, []string{"-workers", "3", "-kernel", "parallel", "-intra-workers", "2", "-log", "warn"}, func(r *Run) {
		if r.Workers != 3 || r.Kernel != (kernels.Policy{Impl: "parallel", IntraWorkers: 2}) || r.logSpec != "warn" || r.Trace != "" {
			t.Errorf("parsed run = %+v", r)
		}
		for _, name := range []string{"workers", "kernel", "intra-workers", "log", "trace"} {
			if flag.Lookup(name) == nil {
				t.Errorf("-%s not registered", name)
			}
		}
		if usage := flag.Lookup("kernel").Usage; !strings.Contains(usage, "blocked, parallel") {
			t.Errorf("-kernel usage %q does not list the policies", usage)
		}
	})
	if code != -1 {
		t.Fatalf("exited %d", code)
	}
}

func TestBadKernelExitsUsage(t *testing.T) {
	for _, args := range [][]string{{"-kernel", "naive"}, {"-intra-workers", "-1"}} {
		code, errOut := withFlags(t, args, func(r *Run) { r.Start() })
		if code != exitUsage {
			t.Errorf("%v: exit status %d, want %d", args, code, exitUsage)
		}
		if !strings.HasPrefix(errOut, "mupod-test: kernels: ") {
			t.Errorf("%v: stderr %q", args, errOut)
		}
	}
	_, errOut := withFlags(t, []string{"-kernel", "naive"}, func(r *Run) { r.Start() })
	if !strings.Contains(errOut, "blocked") || !strings.Contains(errOut, "parallel") {
		t.Errorf("stderr %q does not name the accepted policies", errOut)
	}
}

func TestCheckExitStatus(t *testing.T) {
	code, errOut := withFlags(t, nil, func(r *Run) {
		r.Start()
		r.Check(nil)
		r.Check(errors.New("boom"))
	})
	if code != exitFailure || errOut != "mupod-test: boom\n" {
		t.Errorf("failure: status %d, stderr %q", code, errOut)
	}

	code, errOut = withFlags(t, nil, func(r *Run) {
		ctx := r.Start()
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("SIGINT did not cancel the run context")
		}
		r.Check(ctx.Err())
	})
	if code != exitInterrupted || errOut != "mupod-test: interrupted\n" {
		t.Errorf("interrupt: status %d, stderr %q", code, errOut)
	}
}

func TestFinishWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _ := withFlags(t, []string{"-trace", path}, func(r *Run) {
		ctx := r.Start()
		_, sp := obs.Start(ctx, "stage")
		sp.End()
		r.Finish()
	})
	if code != -1 {
		t.Fatalf("exited %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"stage"`) {
		t.Errorf("trace file lacks the span: %s", data)
	}

	code, errOut := withFlags(t, []string{"-trace", filepath.Join(t.TempDir(), "missing", "trace.json")}, func(r *Run) {
		r.Start()
		r.Finish()
	})
	if code != exitFailure || !strings.HasPrefix(errOut, "mupod-test: writing trace: ") {
		t.Errorf("unwritable trace: status %d, stderr %q", code, errOut)
	}
}
