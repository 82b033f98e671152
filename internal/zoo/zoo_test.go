package zoo

import (
	"testing"
)

func TestAnalyzableLayerCountsMatchPaper(t *testing.T) {
	// Table III column "# layers": the sim topologies must reproduce the
	// paper's analyzable layer counts exactly.
	for _, a := range All {
		net := Build(a, Seed)
		got := len(net.AnalyzableNodes())
		if want := AnalyzableLayers[a]; got != want {
			t.Errorf("%s: %d analyzable layers, paper says %d", a, got, want)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, a := range []Arch{AlexNet, ResNet50} {
		n1 := Build(a, Seed)
		n2 := Build(a, Seed)
		p1, p2 := n1.Params(), n2.Params()
		for i := range p1 {
			for j := range p1[i].Value.Data {
				if p1[i].Value.Data[j] != p2[i].Value.Data[j] {
					t.Fatalf("%s: Build not deterministic", a)
				}
			}
		}
	}
}

func TestBuildDifferentSeedsDiffer(t *testing.T) {
	n1 := Build(AlexNet, 1)
	n2 := Build(AlexNet, 2)
	p1, p2 := n1.Params(), n2.Params()
	same := true
	for j := range p1[0].Value.Data {
		if p1[0].Value.Data[j] != p2[0].Value.Data[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical weights")
	}
}

func TestBuildUnknownArchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(Arch("nope"), 1)
}

func TestForwardShapes(t *testing.T) {
	for _, a := range All {
		net := Build(a, Seed)
		_, te := Data(a)
		acts := net.ForwardAll(te.Batch(0, 2))
		if out := acts[len(acts)-1]; out.Shape[0] != 2 || out.Shape[1] != 10 {
			t.Errorf("%s: output shape %v", a, out.Shape)
		}
	}
}

func TestDataDeterministicAndSized(t *testing.T) {
	tr1, te1 := Data(AlexNet)
	tr2, te2 := Data(AlexNet)
	if tr1 != tr2 || te1 != te2 {
		t.Fatal("Data must return the cached splits")
	}
	if tr1.Len() != 600 || te1.Len() != 400 {
		t.Fatalf("split sizes %d/%d", tr1.Len(), te1.Len())
	}
	if tr1.H != InputSize(AlexNet) {
		t.Fatalf("image size %d", tr1.H)
	}
	trR, _ := Data(ResNet152)
	if trR.H != 8 {
		t.Fatalf("resnet data size %d", trR.H)
	}
}

func TestInputSizes(t *testing.T) {
	if InputSize(ResNet50) != 8 || InputSize(ResNet152) != 8 {
		t.Fatal("ResNets should use 8×8 inputs")
	}
	if InputSize(VGG19) != 16 {
		t.Fatal("VGG should use 16×16 inputs")
	}
}

func TestResNetStructure(t *testing.T) {
	net := Build(ResNet50, Seed)
	// conv1 + 16 blocks × 3 + 4 projections + fc = 54 (checked above);
	// here verify the residual adds exist.
	adds := 0
	for _, nd := range net.Nodes {
		if nd.Layer != nil && nd.Layer.Kind() == "add" {
			adds++
		}
	}
	if adds != 16 {
		t.Fatalf("resnet50 has %d residual adds, want 16", adds)
	}
}

func TestGoogleNetConcats(t *testing.T) {
	net := Build(GoogleNet, Seed)
	concats := 0
	for _, nd := range net.Nodes {
		if nd.Layer != nil && nd.Layer.Kind() == "concat" {
			concats++
		}
	}
	if concats != 9 {
		t.Fatalf("googlenet has %d inception concats, want 9", concats)
	}
}

func TestMobileNetDepthwise(t *testing.T) {
	net := Build(MobileNet, Seed)
	dw := 0
	for _, nd := range net.Nodes {
		if nd.Layer != nil && nd.Layer.Kind() == "dwconv" {
			dw++
		}
	}
	if dw != 13 {
		t.Fatalf("mobilenet has %d depthwise convs, want 13", dw)
	}
}

func TestFCAnalyzabilityFollowsPaper(t *testing.T) {
	// Stripes convention: FC excluded for AlexNet/NiN/GoogleNet/VGG-19,
	// included for the ResNets and MobileNet.
	excluded := map[Arch]bool{AlexNet: true, NiN: true, GoogleNet: true, VGG19: true}
	for _, a := range All {
		net := Build(a, Seed)
		for _, nd := range net.Nodes {
			if nd.Layer == nil || nd.Layer.Kind() != "fc" {
				continue
			}
			if excluded[a] && nd.Analyzable {
				t.Errorf("%s: FC %s should not be analyzable", a, nd.Name)
			}
			if !excluded[a] && !nd.Analyzable {
				t.Errorf("%s: FC %s should be analyzable", a, nd.Name)
			}
		}
	}
}

// TestTrainedAccuracy trains (or loads) the full zoo — minutes of work
// on a cold cache, so it is skipped in -short mode.
func TestTrainedAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo training skipped in -short mode")
	}
	for _, a := range All {
		acc, err := TestAccuracy(a)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.60 {
			t.Errorf("%s: test accuracy %.3f < 0.60 — zoo training regressed", a, acc)
		}
	}
}

func TestCacheRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("depends on trained zoo")
	}
	// Loading twice must return the identical in-memory network.
	n1 := MustLoad(AlexNet)
	n2 := MustLoad(AlexNet)
	if n1 != n2 {
		t.Fatal("Load did not memoize")
	}
}
