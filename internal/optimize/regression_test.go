package optimize_test

import (
	"context"
	"testing"

	"mupod/internal/fixedpoint"
	"mupod/internal/optimize"
	"mupod/internal/profile"
	"mupod/internal/refcheck"
)

// ninJoint is the joint activation+weight Eq. 8 instance of the zoo's
// nin: 12 activation sources (conv1–conv12), then the 12 layers'
// weights, with JointAllocate's default ρ (#Input, then #Params). λ and
// θ come from profile.Run with {Images: 16, Points: 8, TargetSamples:
// 4096, Seed: 21} and weights.Run with {Images: 8, Points: 6,
// TargetSamples: 2048, Seed: 21} on nin's test split.
var ninJoint = []struct{ lambda, theta, rho float64 }{
	{0.21998840783303678, 0.0011058786554192911, 768},
	{0.34875935822729204, 0.0007279656659237993, 4096},
	{0.47081570178527687, 0.0027749357762491336, 4096},
	{0.68374372902159652, -0.0055400826731164393, 1024},
	{0.99449815992399937, 0.0018264009490769201, 1536},
	{1.5555703438544337, 0.018346994807630801, 1536},
	{2.2482802318373039, -0.017283560739404069, 384},
	{3.4803945249018278, -0.037667986640128159, 512},
	{3.7024510636649008, 0.0054731615714586068, 512},
	{4.5935574258984833, -0.01729508682178349, 128},
	{5.1205200110286553, -0.12326143937160849, 40},
	{4.7630275299941029, 0.0059888984100523457, 40},
	{0.026557764103602489, 0.00017746416995365662, 432},
	{0.050892978557633146, 3.7514189415936271e-05, 256},
	{0.062474002599239874, 0.0001931976147073345, 256},
	{0.037906669125733851, 7.8373121180986107e-05, 3456},
	{0.056944048292699445, 0.00034463805667475254, 576},
	{0.044989092097391985, 7.5777973027965455e-05, 576},
	{0.016659678479914827, 5.441867571447101e-06, 6912},
	{0.031200541801092406, -0.00030396975976685258, 1024},
	{0.032715565806801114, -3.0567276459371896e-05, 1024},
	{0.0099333081704454113, 2.3838282992715292e-05, 2880},
	{0.016418506929567173, -0.00021883570017619449, 100},
	{0.027738634721617215, -0.00012882724552128622, 100},
}

// At a small σ_YŁ several sources of the nin instance sit on their
// bounds. An iterative solver that stopped when its backtracking
// stalled finished 1.1e-5 above the optimum there and gave conv7's
// weights (source 18) 14 fraction bits; the optimum needs 13.
func TestSolveNinJointAtSmallSigma(t *testing.T) {
	const sigma = 0.034178727978880503
	p := &profile.Profile{NetName: "nin"}
	rho := make([]float64, len(ninJoint))
	for k, r := range ninJoint {
		p.Layers = append(p.Layers, profile.LayerProfile{Lambda: r.lambda, Theta: r.theta})
		rho[k] = r.rho
	}
	obj, err := optimize.NewBitObjective(p, sigma, rho, 0)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := optimize.Solve(context.Background(), obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := refcheck.CheckSimplex(xi, obj.LowerBound); err != nil {
		t.Fatal(err)
	}
	if err := refcheck.CheckNoDescentMove(obj, xi, 1e-7); err != nil {
		t.Fatal(err)
	}
	delta := max(p.Layers[18].DeltaFor(sigma, xi[18]), optimize.DefaultDeltaFloor)
	if f := fixedpoint.FracBitsForDelta(delta); f != 13 {
		t.Fatalf("conv7's weights get %d fraction bits at ξ = %.17g, want 13", f, xi[18])
	}
}
