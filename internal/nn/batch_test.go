package nn

import (
	"math"
	"testing"

	"noisyeval/internal/rng"
	"noisyeval/internal/tensor"
)

// relClose reports |a-b| <= tol * max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// denseBatch builds a random dense minibatch and its labels.
func denseBatch(bsz, inDim, classes int, g *rng.RNG) (*tensor.Mat, []int) {
	X := tensor.NewMat(bsz, inDim)
	for i := range X.Data {
		X.Data[i] = g.Normal(0, 1)
	}
	labels := make([]int, bsz)
	for i := range labels {
		labels[i] = g.IntN(classes)
	}
	return X, labels
}

// tokenBatch builds random token contexts and labels.
func tokenBatch(bsz, vocab, maxCtx int, g *rng.RNG) ([][]int, []int) {
	ctx := make([][]int, bsz)
	labels := make([]int, bsz)
	for i := range ctx {
		n := 1 + g.IntN(maxCtx)
		toks := make([]int, n)
		for j := range toks {
			toks[j] = g.IntN(vocab)
		}
		ctx[i] = toks
		labels[i] = g.IntN(vocab)
	}
	return ctx, labels
}

// TestBatchParityMLP is the batched-vs-per-sample property test for dense
// networks: on random shapes and batches, ForwardBatch logits, summed loss,
// and accumulated gradients must match the per-sample path within 1e-12
// relative tolerance.
func TestBatchParityMLP(t *testing.T) {
	g := rng.New(101)
	for trial := 0; trial < 20; trial++ {
		inDim := 1 + g.IntN(30)
		hidden := 1 + g.IntN(40)
		classes := 2 + g.IntN(9)
		bsz := 1 + g.IntN(40)
		net := NewMLP(inDim, hidden, classes, g.Split("net"))
		X, labels := denseBatch(bsz, inDim, classes, g)

		// Per-sample reference.
		net.ZeroGrad()
		wantLoss := 0.0
		wantLogits := tensor.NewMat(bsz, classes)
		for i := 0; i < bsz; i++ {
			copy(wantLogits.Row(i), net.Logits(Input{Features: X.Row(i)}))
			wantLoss += net.LossAndBackward(Input{Features: X.Row(i)}, labels[i])
		}
		wantG := tensor.NewVec(net.NumWeights())
		net.FlattenGrads(wantG)

		// Batched path.
		gotLogits := net.LogitsBatch(X, nil)
		for i := 0; i < bsz; i++ {
			for j := 0; j < classes; j++ {
				if !relClose(gotLogits.At(i, j), wantLogits.At(i, j), 1e-12) {
					t.Fatalf("trial %d: logits[%d][%d] %g != %g", trial, i, j, gotLogits.At(i, j), wantLogits.At(i, j))
				}
			}
		}
		net.ZeroGrad()
		gotLoss := net.LossAndBackwardBatch(X, nil, labels)
		if !relClose(gotLoss, wantLoss, 1e-12) {
			t.Fatalf("trial %d: loss %g != %g", trial, gotLoss, wantLoss)
		}
		gotG := net.GradsVec()
		for i := range gotG {
			if !relClose(gotG[i], wantG[i], 1e-12) {
				t.Fatalf("trial %d: grad[%d] %g != %g", trial, i, gotG[i], wantG[i])
			}
		}
	}
}

// TestBatchParityTextNet is the same property test for EmbeddingBag
// networks (token contexts of varying length).
func TestBatchParityTextNet(t *testing.T) {
	g := rng.New(202)
	for trial := 0; trial < 15; trial++ {
		vocab := 5 + g.IntN(40)
		embDim := 1 + g.IntN(16)
		hidden := 1 + g.IntN(24)
		bsz := 1 + g.IntN(24)
		net := NewTextNet(vocab, embDim, hidden, g.Split("net"))
		ctx, labels := tokenBatch(bsz, vocab, 9, g)

		net.ZeroGrad()
		wantLoss := 0.0
		for i := 0; i < bsz; i++ {
			wantLoss += net.LossAndBackward(Input{Tokens: ctx[i]}, labels[i])
		}
		wantG := tensor.NewVec(net.NumWeights())
		net.FlattenGrads(wantG)

		net.ZeroGrad()
		gotLoss := net.LossAndBackwardBatch(nil, ctx, labels)
		if !relClose(gotLoss, wantLoss, 1e-12) {
			t.Fatalf("trial %d: loss %g != %g", trial, gotLoss, wantLoss)
		}
		gotG := net.GradsVec()
		for i := range gotG {
			if !relClose(gotG[i], wantG[i], 1e-12) {
				t.Fatalf("trial %d: grad[%d] %g != %g", trial, i, gotG[i], wantG[i])
			}
		}
	}
}

// TestPredictBatch checks PredictBatch equals the row-argmax of the batched
// logits and (on clearly separated inputs) the per-sample Predict.
func TestPredictBatch(t *testing.T) {
	g := rng.New(303)
	net := NewMLP(12, 20, 5, g.Split("net"))
	X, _ := denseBatch(17, 12, 5, g)
	preds := make([]int, 17)
	net.PredictBatch(X, nil, preds)
	for i := 0; i < 17; i++ {
		if p := net.Predict(Input{Features: X.Row(i)}); p != preds[i] {
			// The two paths may only disagree when the top two logits are
			// within kernel summation-order noise.
			logits := net.Logits(Input{Features: X.Row(i)}).Clone()
			if math.Abs(logits[p]-logits[preds[i]]) > 1e-9 {
				t.Fatalf("row %d: PredictBatch %d vs Predict %d (gap %g)", i, preds[i], p, logits[p]-logits[preds[i]])
			}
		}
	}
}

// TestParamsVecIsLive verifies ParamsVec/GradsVec are true views: writes
// through ParamsVec must change model behaviour, and per-sample gradient
// accumulation must land in GradsVec.
func TestParamsVecIsLive(t *testing.T) {
	g := rng.New(404)
	net := NewMLP(4, 6, 3, g.Split("net"))
	in := Input{Features: tensor.Vec{1, -0.5, 0.25, 2}}
	before := net.Logits(in).Clone()

	w := net.ParamsVec()
	if len(w) != net.NumWeights() {
		t.Fatalf("ParamsVec length %d, want %d", len(w), net.NumWeights())
	}
	// FlattenParams must agree with the view.
	flat := tensor.NewVec(net.NumWeights())
	net.FlattenParams(flat)
	for i := range flat {
		if flat[i] != w[i] {
			t.Fatalf("FlattenParams[%d] %g != ParamsVec %g", i, flat[i], w[i])
		}
	}
	for i := range w {
		w[i] = 0
	}
	after := net.Logits(in)
	for i := range after {
		if after[i] != 0 {
			t.Fatalf("zeroed ParamsVec still produces logit %g", after[i])
		}
	}
	_ = before

	net.SetParams(flat)
	net.ZeroGrad()
	net.LossAndBackward(in, 1)
	gv := net.GradsVec()
	sum := 0.0
	for _, x := range gv {
		sum += math.Abs(x)
	}
	if sum == 0 {
		t.Fatal("GradsVec empty after LossAndBackward")
	}
}

// TestBatchSteadyStateAllocs asserts the batched hot loop's zero-allocation
// contract: after a warm-up pass, forward+backward over a reused minibatch
// performs no heap allocation.
func TestBatchSteadyStateAllocs(t *testing.T) {
	g := rng.New(505)
	net := NewMLP(24, 48, 10, g.Split("net"))
	X, labels := denseBatch(32, 24, 10, g)
	net.ZeroGrad()
	net.LossAndBackwardBatch(X, nil, labels) // warm up workspaces
	allocs := testing.AllocsPerRun(100, func() {
		net.ZeroGrad()
		net.LossAndBackwardBatch(X, nil, labels)
		net.GradsVec().Scale(1.0 / 32)
	})
	if allocs != 0 {
		t.Fatalf("batched train step allocates %.1f/op, want 0", allocs)
	}

	tg := rng.New(506)
	tnet := NewTextNet(50, 8, 16, tg.Split("net"))
	ctx, tlabels := tokenBatch(32, 50, 6, tg)
	tnet.ZeroGrad()
	tnet.LossAndBackwardBatch(nil, ctx, tlabels)
	allocs = testing.AllocsPerRun(100, func() {
		tnet.ZeroGrad()
		tnet.LossAndBackwardBatch(nil, ctx, tlabels)
	})
	if allocs != 0 {
		t.Fatalf("batched text train step allocates %.1f/op, want 0", allocs)
	}
}

// TestElementwiseMatchGeneric pins ReLU's batched forward and backward —
// the AVX2 kernel over the whole vectors plus the Go loop over the tail — to
// the Go loops over every element on Float64bits, at every size from 0 to
// 70: -0, ±Inf, subnormals and NaNs of both signs go through both masks
// (a sign-bit NaN is cleared forward, a positive one passes and then lets
// its gradient through), and the backward mask is also fed retained outputs
// the forward pass never produces (-0, negatives).
func TestElementwiseMatchGeneric(t *testing.T) {
	g := rng.New(20240614)
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0xFFF0000000000001), 5e-324, -5e-324}
	draw := func(n int) *tensor.Mat {
		m := &tensor.Mat{Rows: 1, Cols: n, Data: make([]float64, n+1)[1:]} // odd offset: unaligned
		for i := range m.Data {
			if g.Bool(0.3) {
				m.Data[i] = specials[g.IntN(len(specials))]
			} else {
				m.Data[i] = g.Normal(0, 1)
			}
		}
		return m
	}
	same := func(what string, n int, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s n=%d element %d: %x, Go loop %x", what, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 10; trial++ {
			r := NewReLU(n)
			x, grad := draw(n), draw(n)
			out := r.ForwardBatch(x)
			want := make([]float64, n)
			reluFrom(0, want, x.Data)
			same("ReLU forward", n, out.Data, want)

			if trial%2 == 1 {
				copy(r.outB.Data, draw(n).Data)
			}
			gin := r.BackwardBatch(grad)
			reluBackFrom(0, want, grad.Data, r.outB.Data)
			same("ReLU backward", n, gin.Data, want)
		}
	}
}
