// Batched forward/backward: every built-in layer processes row-major
// example matrices (one example per row) through the GEMM kernels in
// internal/tensor, with per-layer activation/gradient workspaces that are
// resized in place — steady-state training allocates nothing. Parity with
// the per-sample path is pinned to 1e-12 by TestBatchParity; the residual
// difference is summation order inside the dot-product kernels.
package nn

import (
	"fmt"
	"math"

	"noisyeval/internal/tensor"
)

// BatchLayer is a Layer that can also process a minibatch at once. The same
// call ordering rules apply per batch: ForwardBatch before BackwardBatch,
// returned matrices owned by the layer and valid until its next forward.
// Batched and per-sample state are separate; interleaving the two paths
// between a forward and its backward is not supported.
type BatchLayer interface {
	Layer
	// ForwardBatch computes the layer output for each row of x (B×in),
	// returning a B×out matrix.
	ForwardBatch(x *tensor.Mat) *tensor.Mat
	// BackwardBatch consumes the per-row output gradients (B×out),
	// accumulates parameter gradients (summed over rows, matching the
	// per-sample accumulation convention), and returns the per-row input
	// gradients (B×in).
	BackwardBatch(grad *tensor.Mat) *tensor.Mat
}

// ForwardBatch implements BatchLayer: out = X·Wᵀ + b per row.
func (l *Linear) ForwardBatch(x *tensor.Mat) *tensor.Mat {
	if x.Cols != l.w.Cols {
		panic(fmt.Sprintf("nn: Linear batch in dim %d, want %d", x.Cols, l.w.Cols))
	}
	l.inB = x
	l.outB.Resize(x.Rows, l.w.Rows)
	tensor.MatMulNT(x, l.w.Mat(), &l.outB)
	l.outB.AddRowVec(l.b.W)
	return &l.outB
}

// BackwardBatch implements BatchLayer: dW += Gᵀ·X, db += Σ rows(G),
// dX = G·W — three GEMM-shaped calls replacing B rank-1 updates.
func (l *Linear) BackwardBatch(grad *tensor.Mat) *tensor.Mat {
	l.BackwardBatchParams(grad)
	l.ginB.Resize(grad.Rows, l.w.Cols)
	tensor.MatMul(grad, l.w.Mat(), &l.ginB)
	return &l.ginB
}

// BackwardBatchParams accumulates only the parameter gradients, skipping the
// input-gradient GEMM. The network uses it for the first dense layer, whose
// input gradient has no consumer — for the study's 2-layer MLPs that is
// nearly half of the first layer's backward cost.
func (l *Linear) BackwardBatchParams(grad *tensor.Mat) {
	tensor.MatMulTNAcc(grad, l.inB, l.w.GradMat())
	grad.AccumColSums(l.b.G)
}

// ForwardBatch implements BatchLayer.
func (r *ReLU) ForwardBatch(x *tensor.Mat) *tensor.Mat {
	if x.Cols != r.dim {
		panic(fmt.Sprintf("nn: ReLU batch dim %d, want %d", x.Cols, r.dim))
	}
	r.outB.Resize(x.Rows, x.Cols)
	reluFrom(tensor.ReLULanes(r.outB.Data, x.Data), r.outB.Data, x.Data)
	return &r.outB
}

// reluFrom is the forward loop over elements from..len(x); the AVX2 kernel
// (tensor.ReLULanes) has taken the whole vectors before it and computes the
// same integer form.
func reluFrom(from int, out, x []float64) {
	out = out[:len(x)]
	for i := from; i < len(x); i++ {
		// Branchless max(v, 0): clear all bits when the sign bit is set.
		// Pre-activations are sign-random, so a compare here mispredicts
		// half the time and costs more than the whole GEMM row it follows.
		b := math.Float64bits(x[i])
		out[i] = math.Float64frombits(b &^ uint64(int64(b)>>63))
	}
}

// BackwardBatch implements BatchLayer; the retained outputs double as the
// activation mask (out > 0 iff the unit fired).
func (r *ReLU) BackwardBatch(grad *tensor.Mat) *tensor.Mat {
	r.ginB.Resize(grad.Rows, grad.Cols)
	reluBackFrom(tensor.ReLUBackLanes(r.ginB.Data, grad.Data, r.outB.Data), r.ginB.Data, grad.Data, r.outB.Data)
	return &r.ginB
}

// reluBackFrom is the backward loop over elements from..len(grad), after
// tensor.ReLUBackLanes.
func reluBackFrom(from int, gin, grad, out []float64) {
	out = out[:len(grad)]
	gin = gin[:len(grad)]
	for i := from; i < len(grad); i++ {
		// Branchless select: retained outputs are either +0 (unit off) or
		// strictly positive, so bits(out)-1 underflows to sign-set exactly
		// for the off units; that sign masks g to zero.
		mask := uint64(int64(math.Float64bits(out[i])-1) >> 63)
		gin[i] = math.Float64frombits(math.Float64bits(grad[i]) &^ mask)
	}
}

// ForwardBatch implements BatchLayer.
func (t *Tanh) ForwardBatch(x *tensor.Mat) *tensor.Mat {
	if x.Cols != t.dim {
		panic(fmt.Sprintf("nn: Tanh batch dim %d, want %d", x.Cols, t.dim))
	}
	t.outB.Resize(x.Rows, x.Cols)
	out := t.outB.Data[:len(x.Data)]
	for i, v := range x.Data {
		out[i] = math.Tanh(v)
	}
	return &t.outB
}

// BackwardBatch implements BatchLayer.
func (t *Tanh) BackwardBatch(grad *tensor.Mat) *tensor.Mat {
	t.ginB.Resize(grad.Rows, grad.Cols)
	out := t.outB.Data[:len(grad.Data)]
	gin := t.ginB.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		y := out[i]
		gin[i] = g * (1 - y*y)
	}
	return &t.ginB
}

// ForwardTokensBatch embeds and mean-pools each context (one per row of the
// returned B×dim matrix). The contexts slice is retained until
// BackwardTokensBatch.
func (e *EmbeddingBag) ForwardTokensBatch(contexts [][]int) *tensor.Mat {
	e.tokensB = contexts
	e.outB.Resize(len(contexts), e.dim)
	for i, tokens := range contexts {
		if len(tokens) == 0 {
			panic("nn: EmbeddingBag batch forward with empty context")
		}
		out := e.outB.Row(i)
		out.Zero()
		for _, tok := range tokens {
			if tok < 0 || tok >= e.emb.Rows {
				panic(fmt.Sprintf("nn: token %d out of vocab %d", tok, e.emb.Rows))
			}
			out.Add(tensor.Vec(e.emb.W[tok*e.dim : (tok+1)*e.dim]))
		}
		out.Scale(1 / float64(len(tokens)))
	}
	return &e.outB
}

// BackwardTokensBatch scatter-adds the per-row gradients into the embedding
// rows of each retained context.
func (e *EmbeddingBag) BackwardTokensBatch(grad *tensor.Mat) {
	for i, tokens := range e.tokensB {
		g := grad.Row(i)
		inv := 1 / float64(len(tokens))
		for _, tok := range tokens {
			tensor.Vec(e.emb.G[tok*e.dim:(tok+1)*e.dim]).Axpy(inv, g)
		}
	}
}

// LogitsBatch runs the batched forward pass: X holds one dense example per
// row (nil for embedding networks), contexts one token context per example
// (nil for dense networks). The returned B×classes matrix is owned by the
// network's last layer and valid until the next forward.
func (n *Network) LogitsBatch(X *tensor.Mat, contexts [][]int) *tensor.Mat {
	if n.batchLayers == nil {
		panic("nn: network contains a layer without a batched path")
	}
	var h *tensor.Mat
	switch {
	case n.Embed != nil:
		h = n.Embed.ForwardTokensBatch(contexts)
	case X != nil:
		h = X
	default:
		panic("nn: batch input has neither features nor an embedding front-end")
	}
	for _, l := range n.batchLayers {
		h = l.ForwardBatch(h)
	}
	return h
}

// LossAndBackwardBatch runs one batched forward + softmax cross-entropy +
// backward over the minibatch, accumulating parameter gradients summed over
// examples (the per-sample convention: callers scale by 1/B at the optimizer
// step). It returns the summed loss.
func (n *Network) LossAndBackwardBatch(X *tensor.Mat, contexts [][]int, labels []int) float64 {
	logits := n.LogitsBatch(X, contexts)
	loss := tensor.SoftmaxCrossEntropyRows(logits, labels) // logits become dL/dlogits in place
	grad := logits
	for i := len(n.batchLayers) - 1; i >= 0; i-- {
		// The first layer's input gradient has a consumer only when an
		// embedding front-end sits below it; otherwise skip that GEMM.
		if i == 0 && n.Embed == nil {
			if po, ok := n.batchLayers[0].(paramOnlyBackward); ok {
				po.BackwardBatchParams(grad)
				return loss
			}
		}
		grad = n.batchLayers[i].BackwardBatch(grad)
	}
	if n.Embed != nil {
		n.Embed.BackwardTokensBatch(grad)
	}
	return loss
}

// paramOnlyBackward is implemented by batch layers that can accumulate
// parameter gradients without producing input gradients.
type paramOnlyBackward interface {
	BackwardBatchParams(grad *tensor.Mat)
}

// PredictBatch fills preds (length B) with the argmax class of each example.
func (n *Network) PredictBatch(X *tensor.Mat, contexts [][]int, preds []int) {
	n.LogitsBatch(X, contexts).ArgMaxRows(preds)
}
