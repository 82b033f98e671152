package zoo

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/train"
)

// Seed is the global reproducibility seed for weights, datasets and
// training batches. Changing it regenerates the whole zoo.
const Seed uint64 = 20190325 // DATE 2019 conference date

// cacheVersion invalidates cached trained parameters whenever the
// architectures, dataset or trainer change incompatibly.
const cacheVersion = "v1"

// Data returns the train/test splits for an architecture (16×16 for
// most networks, 8×8 for the ResNets). Splits are deterministic and
// shared between architectures of the same input size.
func Data(a Arch) (tr, te *dataset.Dataset) {
	return dataForSize(InputSize(a))
}

var (
	dataMu    sync.Mutex
	dataCache = map[int][2]*dataset.Dataset{}
)

func dataForSize(size int) (tr, te *dataset.Dataset) {
	dataMu.Lock()
	defer dataMu.Unlock()
	if d, ok := dataCache[size]; ok {
		return d[0], d[1]
	}
	cfg := dataset.Config{
		H: size, W: size,
		Train: 600, Test: 400,
		Seed: Seed + uint64(size),
	}
	a, b := dataset.Generate(cfg)
	dataCache[size] = [2]*dataset.Dataset{a, b}
	return a, b
}

// trainConfig returns the per-architecture training hyperparameters
// (Adam + warmup + cosine decay; settings found by a small sweep — all
// eight networks reach ≥95% test accuracy). Budgets are sized for a
// single CPU core.
func trainConfig(a Arch) train.Config {
	cfg := train.Config{
		Optimizer: train.Adam,
		LR:        0.003,
		BatchSize: 8,
		Steps:     250,
		Seed:      Seed,
	}
	switch a {
	case GoogleNet, ResNet50:
		cfg.LR = 0.01
	case VGG19:
		cfg.LR = 0.001
		cfg.Steps = 600
	case ResNet152, SqueezeNet:
		cfg.Steps = 600
	case MobileNet:
		cfg.LR = 0.001
		cfg.Steps = 1200
	case NiN:
		cfg.LR = 0.002
		cfg.Steps = 600
	}
	return cfg
}

// CacheDir returns the directory trained parameters are cached in:
// $MUPOD_CACHE if set, else a per-user directory under os.TempDir().
func CacheDir() string {
	if d := os.Getenv("MUPOD_CACHE"); d != "" {
		return d
	}
	return filepath.Join(os.TempDir(), "mupod-cache")
}

var (
	loadMu sync.Mutex
	loaded = map[Arch]*nn.Network{}
)

// Load returns the trained network for an architecture, training it on
// first use and caching the parameters both in memory and on disk.
// Training is deterministic, so the on-disk cache is purely a speedup.
func Load(a Arch) (*nn.Network, error) {
	loadMu.Lock()
	defer loadMu.Unlock()
	if net, ok := loaded[a]; ok {
		return net, nil
	}
	net := Build(a, Seed)
	path := filepath.Join(CacheDir(), fmt.Sprintf("%s-%s-%d.params.gz", a, cacheVersion, Seed))
	if err := net.LoadParams(path); err == nil {
		loaded[a] = net
		return net, nil
	}
	tr, _ := Data(a)
	train.Run(net, tr, trainConfig(a))
	if err := os.MkdirAll(CacheDir(), 0o755); err == nil {
		// Cache write failures are non-fatal: the net is already trained.
		_ = net.SaveParams(path)
	}
	loaded[a] = net
	return net, nil
}

// MustLoad is Load but panics on error (none of the current paths can
// fail, but the API keeps the error for future weight-file loading).
func MustLoad(a Arch) *nn.Network {
	net, err := Load(a)
	if err != nil {
		panic(fmt.Sprintf("zoo: loading %s: %v", a, err))
	}
	return net
}

// TestAccuracy returns the trained network's float64 top-1 accuracy on
// the held-out split (the "exact" accuracy every relative-drop
// constraint in the paper is measured against).
func TestAccuracy(a Arch) (float64, error) {
	net, err := Load(a)
	if err != nil {
		return 0, err
	}
	_, te := Data(a)
	return exec.Accuracy(context.Background(), 1, kernels.Policy{}, net, te, 0, 32, nil)
}
