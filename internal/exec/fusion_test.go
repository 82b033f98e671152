package exec_test

import (
	"fmt"
	"testing"

	"mupod/internal/exec"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/rng"
	"mupod/internal/tensor"
	"mupod/internal/zoo"
)

// fusable builds a net with every case of conv→ReLU fusion: conv1 and
// dwconv (after a max-pool) each feed only a ReLU and fuse; conv2
// feeds its ReLU and an add, so it stays unfused; conv3's ReLU is the
// last node, so the fused pair returns the logits.
func fusable() *nn.Network {
	net := nn.NewNetwork("fusable", []int{3, 6, 6}, 5)
	r := rng.New(3)
	c1 := nn.NewConv2D(3, 4, 3, 1, 1)
	c1.InitHe(r, 1)
	x := net.AddNode("conv1", c1, 0)
	x = net.AddNode("relu1", nn.ReLU{}, x)
	x = net.AddNode("pool", nn.NewMaxPool2D(2, 2), x)
	dw := nn.NewDepthwiseConv2D(4, 3, 1, 1)
	dw.InitHe(r, 1)
	x = net.AddNode("dwconv", dw, x)
	x = net.AddNode("relu2", nn.ReLU{}, x)
	c2 := nn.NewConv2D(4, 4, 3, 1, 1)
	c2.InitHe(r, 1)
	c := net.AddNode("conv2", c2, x)
	x = net.AddNode("relu3", nn.ReLU{}, c)
	x = net.AddNode("add", nn.Add{}, x, c)
	c3 := nn.NewConv2D(4, 5, 3, 2, 1)
	c3.InitHe(r, 1)
	x = net.AddNode("conv3", c3, x)
	net.AddNode("relu4", nn.ReLU{}, x)
	return net
}

// unfused is the allocating, unfused reference of Session.Forward: the
// nn.ForwardAllOn loop, each node in inject computing on its injector's
// output from its first input.
func unfused(be kernels.Backend, net *nn.Network, x *tensor.Tensor, inject map[int]nn.Injector) *tensor.Tensor {
	acts := []*tensor.Tensor{x}
	for _, nd := range net.Nodes[1:] {
		ins := make([]*tensor.Tensor, len(nd.Inputs))
		shapes := make([][]int, len(nd.Inputs))
		for i, in := range nd.Inputs {
			ins[i], shapes[i] = acts[in], acts[in].Shape
		}
		if fn, ok := inject[nd.ID]; ok {
			dst := tensor.New(ins[0].Shape...)
			fn(dst, ins[0])
			ins[0] = dst
		}
		out := tensor.New(nd.Layer.OutShape(shapes)...)
		nn.ForwardLayer(be, nd.Layer, ins, out)
		acts = append(acts, out)
	}
	return acts[len(acts)-1]
}

// bump perturbs every element by a position-keyed amount, negative on
// some, so a ReLU after it sees values change sign.
func bump(dst, src *tensor.Tensor) {
	for i, v := range src.Data {
		dst.Data[i] = v + 0.3*float64(i%3-1)
	}
}

// TestFusionMarksOnlyConvsWhoseOnlyConsumerIsAReLU: conv1 and dwconv
// fuse, conv2 (two consumers) does not, and conv3 fuses with the last
// node.
func TestFusionMarksOnlyConvsWhoseOnlyConsumerIsAReLU(t *testing.T) {
	net := fusable()
	p := exec.NewPlan(net)
	want := map[string]string{"conv1": "relu1", "dwconv": "relu2", "conv3": "relu4"}
	for _, nd := range net.Nodes {
		got := ""
		if r := p.Fused(nd.ID); r != 0 {
			got = net.Nodes[r].Name
		}
		if got != want[nd.Name] {
			t.Errorf("node %s fused with %q, want %q", nd.Name, got, want[nd.Name])
		}
	}
}

// TestFusionCoversTheZoo: in every zoo net, each conv and depthwise conv
// whose only consumer is a ReLU fuses and no other node does, and a
// first exact Forward allocates one buffer per node except the fused
// convs. ResNet's last conv of each block feeds an add and stays
// unfused.
func TestFusionCoversTheZoo(t *testing.T) {
	m := exec.EnableMetrics(obs.NewRegistry())
	defer exec.DisableMetrics()
	for _, arch := range zoo.All {
		net := zoo.Build(arch, 1)
		consumers := make([][]int, len(net.Nodes))
		for _, nd := range net.Nodes {
			for _, in := range nd.Inputs {
				consumers[in] = append(consumers[in], nd.ID)
			}
		}
		p := exec.NewPlan(net)
		fused, unfusedConvs := 0, 0
		for _, nd := range net.Nodes[1:] {
			want := 0
			switch nd.Layer.(type) {
			case *nn.Conv2D, *nn.DepthwiseConv2D:
				if cs := consumers[nd.ID]; len(cs) == 1 {
					if _, ok := net.Nodes[cs[0]].Layer.(nn.ReLU); ok {
						want = cs[0]
					}
				}
				if want == 0 {
					unfusedConvs++
				}
			}
			if got := p.Fused(nd.ID); got != want {
				t.Errorf("%s node %s: fused with node %d, want %d", arch, nd.Name, got, want)
			}
			if want != 0 {
				fused++
			}
		}
		if fused == 0 {
			t.Errorf("%s: no fused pair", arch)
		}
		if (arch == zoo.ResNet50 || arch == zoo.ResNet152) != (unfusedConvs > 0) {
			t.Errorf("%s: %d convs stay unfused", arch, unfusedConvs)
		}
		allocs := m.ArenaAllocs.Value()
		sess := exec.NewSession(p)
		sess.Forward(tensor.New(append([]int{1}, net.InputShape...)...), nil)
		if got, want := m.ArenaAllocs.Value()-allocs, uint64(len(net.Nodes)-1-fused); got != want {
			t.Errorf("%s: the first Forward allocated %d buffers, want %d (one per node but the %d fused convs)",
				arch, got, want, fused)
		}
	}
}

// TestFusedPassesMatchUnfused holds fused Forward and Replay to the
// unfused passes' bits on the fusable net, on each kernel policy:
//   - the exact Forward and a Replay from every node (the ReLUs of fused
//     pairs included, which replay from the cached conv output) give
//     nn.ForwardAllOn's logits;
//   - a Forward injecting at any node and a Replay injecting there give
//     the unfused reference's logits;
//   - a Replay at each conv with a shallow *Conv2D copy holding
//     perturbed weights gives the reference on the net with those
//     weights, as does the same copy behind a wrapper with no ReLU
//     epilogue.
//
// Until a pass runs a pair unfused (an injection at its ReLU, or a
// layer with no epilogue), no fused conv gets a Session buffer.
func TestFusedPassesMatchUnfused(t *testing.T) {
	net := fusable()
	// Forward runs on x2, Replay from x's activations, so a pass that
	// read a conv output its fused pair never wrote would see the other
	// batch's.
	x, x2 := tensor.New(3, 3, 6, 6), tensor.New(3, 3, 6, 6)
	r := rng.New(4)
	for i := range x.Data {
		x.Data[i], x2.Data[i] = r.Uniform(-1, 1), r.Uniform(-1, 1)
	}
	for _, pol := range []kernels.Policy{{}, {Impl: "parallel", IntraWorkers: 2}} {
		be := kernels.MustNew(pol)
		p := exec.NewPlan(net)
		sess := exec.NewSessionPolicy(p, pol)
		acts := net.ForwardAllOn(be, x)
		exact := acts[len(acts)-1].Data
		fusedReLU := map[int]bool{}
		for id := range net.Nodes {
			if r := p.Fused(id); r != 0 {
				fusedReLU[r] = true
			}
		}
		injectAt := func(id int) {
			name := fmt.Sprintf("%s node %s", pol.Impl, net.Nodes[id].Name)
			inj := map[int]nn.Injector{id: bump}
			sameBits(t, name+" injected Replay", sess.Replay(acts, id, nil, bump).Data, unfused(be, net, x, inj).Data)
			sameBits(t, name+" injected Forward", sess.Forward(x2, inj).Data, unfused(be, net, x2, inj).Data)
		}
		sameBits(t, pol.Impl+" Forward", sess.Forward(x, nil).Data, exact)
		for id := 1; id < len(net.Nodes); id++ {
			name := fmt.Sprintf("%s node %s", pol.Impl, net.Nodes[id].Name)
			sameBits(t, name+" exact Replay", sess.Replay(acts, id, nil, nil).Data, exact)
			if !fusedReLU[id] {
				injectAt(id)
			}
		}
		for id := range net.Nodes {
			if p.Fused(id) != 0 && sess.Buffered(id) {
				t.Errorf("%s: fused conv %s holds a Session buffer", pol.Impl, net.Nodes[id].Name)
			}
		}
		for id := range fusedReLU {
			injectAt(id)
		}
		for _, name := range []string{"conv1", "conv2", "conv3"} {
			nd := net.NodeByName(name)
			c := nd.Layer.(*nn.Conv2D)
			cp := *c
			cp.W = c.W.Clone()
			for i := range cp.W.Data {
				cp.W.Data[i] *= 1.5
			}
			saved := c.W
			c.W = cp.W
			want := unfused(be, net, x, nil).Data
			c.W = saved
			sameBits(t, pol.Impl+" "+name+" substituted", sess.Replay(acts, nd.ID, &cp, nil).Data, want)
			sameBits(t, pol.Impl+" "+name+" substituted, no epilogue", sess.Replay(acts, nd.ID, plainConv{&cp}, nil).Data, want)
		}
	}
}

// plainConv is a conv without the ReLU epilogue: it offers only
// ForwardIntoOn.
type plainConv struct{ c *nn.Conv2D }

func (p plainConv) Kind() string              { return p.c.Kind() }
func (p plainConv) OutShape(in [][]int) []int { return p.c.OutShape(in) }
func (p plainConv) Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor {
	return p.c.Backward(ins, out, gradOut)
}
func (p plainConv) ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	return p.c.ForwardIntoOn(be, ins, out, scratch)
}
