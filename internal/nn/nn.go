// Package nn implements the small neural networks used as the training
// substrate for the noisy-evaluation study: per-sample forward/backward
// layers, an embedding-bag front-end for next-token-prediction tasks, and a
// softmax cross-entropy loss.
//
// The paper trains 2-layer CNNs (image tasks) and 2-layer LSTMs (text tasks).
// This package substitutes 2-layer MLPs over dense synthetic features and an
// EmbeddingBag + hidden-layer network over token contexts; the tuned
// hyperparameters (client lr/momentum/batch size, server Adam moments) act
// through identical mechanisms, which is what the study measures.
//
// Networks are not safe for concurrent use: each goroutine should own its
// model replica (federated simulation clones server weights per client).
package nn

import (
	"fmt"
	"math"

	"noisyeval/internal/rng"
	"noisyeval/internal/tensor"
)

// Input is one training or evaluation example's features: either a dense
// feature vector (image-like tasks) or a token-id context (text-like tasks).
type Input struct {
	Features tensor.Vec
	Tokens   []int
}

// Param is one trainable tensor with its gradient accumulator. W and G are
// flat storage; Rows/Cols describe the logical matrix shape (Cols == 0 for a
// vector such as a bias). Inside a Network, W and G are subslices of one
// contiguous arena per network (see NewNetwork), which is what lets the
// federated client loop run optimizer steps in place over the model's own
// storage instead of flattening into scratch vectors.
type Param struct {
	Name       string
	Rows, Cols int
	W, G       tensor.Vec

	mat, gmat tensor.Mat // cached views over W/G, refreshed on rebase
}

func newParam(name string, rows, cols int) *Param {
	n := rows
	if cols > 0 {
		n = rows * cols
	}
	p := &Param{Name: name, Rows: rows, Cols: cols, W: tensor.NewVec(n), G: tensor.NewVec(n)}
	p.refreshViews()
	return p
}

// refreshViews rebuilds the cached matrix views after W/G are repointed.
func (p *Param) refreshViews() {
	if p.Cols > 0 {
		p.mat = tensor.Mat{Rows: p.Rows, Cols: p.Cols, Data: p.W}
		p.gmat = tensor.Mat{Rows: p.Rows, Cols: p.Cols, Data: p.G}
	}
}

// Size returns the number of scalar weights in the parameter.
func (p *Param) Size() int { return len(p.W) }

// Mat returns a matrix view over W for a matrix-shaped parameter.
func (p *Param) Mat() *tensor.Mat {
	if p.Cols == 0 {
		panic(fmt.Sprintf("nn: param %s is a vector", p.Name))
	}
	return &p.mat
}

// GradMat returns a matrix view over G.
func (p *Param) GradMat() *tensor.Mat {
	if p.Cols == 0 {
		panic(fmt.Sprintf("nn: param %s is a vector", p.Name))
	}
	return &p.gmat
}

// Layer is a differentiable transform of a dense vector. Forward must be
// called before Backward; Backward accumulates parameter gradients into each
// Param's G and returns the gradient with respect to the layer input.
type Layer interface {
	// OutDim returns the output dimensionality.
	OutDim() int
	// Forward computes the layer output for x, retaining whatever state
	// Backward needs. The returned slice is owned by the layer and valid
	// until the next Forward.
	Forward(x tensor.Vec) tensor.Vec
	// Backward consumes the gradient with respect to the layer output and
	// returns the gradient with respect to the layer input. Parameter
	// gradients accumulate into Params().G.
	Backward(grad tensor.Vec) tensor.Vec
	// Params returns the trainable parameters (possibly none).
	Params() []*Param
}

// Linear is a fully connected layer y = Wx + b.
type Linear struct {
	w, b *Param
	in   tensor.Vec // retained input
	out  tensor.Vec
	gin  tensor.Vec

	inB        *tensor.Mat // retained batch input (caller-owned)
	outB, ginB tensor.Mat  // batch workspaces
}

// NewLinear returns a Linear layer with He-uniform initialised weights.
func NewLinear(inDim, outDim int, g *rng.RNG) *Linear {
	l := &Linear{
		w:   newParam("linear.w", outDim, inDim),
		b:   newParam("linear.b", outDim, 0),
		out: tensor.NewVec(outDim),
		gin: tensor.NewVec(inDim),
	}
	bound := math.Sqrt(6.0 / float64(inDim))
	for i := range l.w.W {
		l.w.W[i] = g.Uniform(-bound, bound)
	}
	return l
}

// OutDim implements Layer.
func (l *Linear) OutDim() int { return l.w.Rows }

// Forward implements Layer.
func (l *Linear) Forward(x tensor.Vec) tensor.Vec {
	l.in = x
	l.w.Mat().MulVec(x, l.out)
	l.out.Add(l.b.W)
	return l.out
}

// Backward implements Layer.
func (l *Linear) Backward(grad tensor.Vec) tensor.Vec {
	l.w.GradMat().AddOuter(1, grad, l.in)
	l.b.G.Add(grad)
	l.w.Mat().MulVecT(grad, l.gin)
	return l.gin
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }

// ReLU is the rectified linear activation.
type ReLU struct {
	dim  int
	out  tensor.Vec
	mask []bool
	gin  tensor.Vec

	outB, ginB tensor.Mat // batch workspaces
}

// NewReLU returns a ReLU over dim units.
func NewReLU(dim int) *ReLU {
	return &ReLU{dim: dim, out: tensor.NewVec(dim), mask: make([]bool, dim), gin: tensor.NewVec(dim)}
}

// OutDim implements Layer.
func (r *ReLU) OutDim() int { return r.dim }

// Forward implements Layer.
func (r *ReLU) Forward(x tensor.Vec) tensor.Vec {
	if len(x) != r.dim {
		panic(fmt.Sprintf("nn: ReLU dim %d, got %d", r.dim, len(x)))
	}
	for i, v := range x {
		if v > 0 {
			r.out[i], r.mask[i] = v, true
		} else {
			r.out[i], r.mask[i] = 0, false
		}
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad tensor.Vec) tensor.Vec {
	for i, m := range r.mask {
		if m {
			r.gin[i] = grad[i]
		} else {
			r.gin[i] = 0
		}
	}
	return r.gin
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	dim int
	out tensor.Vec
	gin tensor.Vec

	outB, ginB tensor.Mat // batch workspaces
}

// NewTanh returns a Tanh over dim units.
func NewTanh(dim int) *Tanh {
	return &Tanh{dim: dim, out: tensor.NewVec(dim), gin: tensor.NewVec(dim)}
}

// OutDim implements Layer.
func (t *Tanh) OutDim() int { return t.dim }

// Forward implements Layer.
func (t *Tanh) Forward(x tensor.Vec) tensor.Vec {
	for i, v := range x {
		t.out[i] = math.Tanh(v)
	}
	return t.out
}

// Backward implements Layer.
func (t *Tanh) Backward(grad tensor.Vec) tensor.Vec {
	for i, y := range t.out {
		t.gin[i] = grad[i] * (1 - y*y)
	}
	return t.gin
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// EmbeddingBag maps a token-id context to the mean of the tokens' embedding
// vectors. It is the front-end for the next-token-prediction populations,
// standing in for the paper's LSTM input embedding (size 128 in the paper).
type EmbeddingBag struct {
	emb    *Param
	dim    int
	tokens []int // retained context
	out    tensor.Vec

	tokensB [][]int    // retained batch contexts (caller-owned)
	outB    tensor.Mat // batch workspace
}

// NewEmbeddingBag returns an embedding table of vocab x dim.
func NewEmbeddingBag(vocab, dim int, g *rng.RNG) *EmbeddingBag {
	e := &EmbeddingBag{emb: newParam("embed", vocab, dim), dim: dim, out: tensor.NewVec(dim)}
	scale := 1 / math.Sqrt(float64(dim))
	for i := range e.emb.W {
		e.emb.W[i] = g.Normal(0, scale)
	}
	return e
}

// OutDim returns the embedding dimensionality.
func (e *EmbeddingBag) OutDim() int { return e.dim }

// Vocab returns the vocabulary size.
func (e *EmbeddingBag) Vocab() int { return e.emb.Rows }

// ForwardTokens embeds and mean-pools the context tokens.
func (e *EmbeddingBag) ForwardTokens(tokens []int) tensor.Vec {
	if len(tokens) == 0 {
		panic("nn: EmbeddingBag forward with empty context")
	}
	e.tokens = tokens
	e.out.Zero()
	for _, tok := range tokens {
		if tok < 0 || tok >= e.emb.Rows {
			panic(fmt.Sprintf("nn: token %d out of vocab %d", tok, e.emb.Rows))
		}
		row := e.emb.W[tok*e.dim : (tok+1)*e.dim]
		e.out.Add(tensor.Vec(row))
	}
	e.out.Scale(1 / float64(len(e.tokens)))
	return e.out
}

// BackwardTokens accumulates embedding gradients for the retained context.
func (e *EmbeddingBag) BackwardTokens(grad tensor.Vec) {
	inv := 1 / float64(len(e.tokens))
	for _, tok := range e.tokens {
		grow := e.emb.G[tok*e.dim : (tok+1)*e.dim]
		tensor.Vec(grow).Axpy(inv, grad)
	}
}

// Params returns the embedding table parameter.
func (e *EmbeddingBag) Params() []*Param { return []*Param{e.emb} }

// Network is a feed-forward classifier: an optional EmbeddingBag front-end
// (token inputs) or direct dense features, followed by a stack of Layers
// whose final output is class logits.
type Network struct {
	Embed  *EmbeddingBag
	Layers []Layer

	params  []*Param
	classes int
	probs   tensor.Vec // scratch for loss computation

	// flatW/flatG are the contiguous parameter/gradient arenas every
	// Param's W/G is a subslice of; ParamsVec/GradsVec expose them so
	// optimizers can step the live model without flatten/unflatten copies.
	flatW, flatG tensor.Vec

	// batchLayers is the Layers stack seen through BatchLayer; nil when any
	// layer lacks a batched path (the batched entry points then panic).
	batchLayers []BatchLayer
}

// NewNetwork assembles a network. embed may be nil for dense-feature tasks.
// The final layer's OutDim is the number of classes.
//
// Assembly rebases every parameter onto one contiguous weight arena and one
// contiguous gradient arena, in Params() order — the same order FlattenParams
// has always used, so flat-vector semantics are unchanged while ParamsVec,
// GradsVec, and ZeroGrad become single-slice operations.
func NewNetwork(embed *EmbeddingBag, layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: network needs at least one layer")
	}
	n := &Network{Embed: embed, Layers: layers, classes: layers[len(layers)-1].OutDim()}
	if embed != nil {
		n.params = append(n.params, embed.Params()...)
	}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	total := 0
	for _, p := range n.params {
		total += p.Size()
	}
	n.flatW, n.flatG = tensor.NewVec(total), tensor.NewVec(total)
	off := 0
	for _, p := range n.params {
		sz := p.Size()
		copy(n.flatW[off:off+sz], p.W)
		p.W = n.flatW[off : off+sz : off+sz]
		p.G = n.flatG[off : off+sz : off+sz]
		p.refreshViews()
		off += sz
	}
	batch := make([]BatchLayer, 0, len(layers))
	for _, l := range layers {
		bl, ok := l.(BatchLayer)
		if !ok {
			batch = nil
			break
		}
		batch = append(batch, bl)
	}
	n.batchLayers = batch
	n.probs = tensor.NewVec(n.classes)
	return n
}

// NewMLP builds the image-task model: inDim -> hidden(ReLU) -> classes.
// This is the stand-in for the paper's 2-layer CNN.
func NewMLP(inDim, hidden, classes int, g *rng.RNG) *Network {
	return NewNetwork(nil,
		NewLinear(inDim, hidden, g.Split("l1")),
		NewReLU(hidden),
		NewLinear(hidden, classes, g.Split("l2")),
	)
}

// NewTextNet builds the next-token model: EmbeddingBag(vocab, embDim) ->
// hidden(Tanh) -> vocab logits. This is the stand-in for the paper's 2-layer
// LSTM with embedding and hidden size 128.
func NewTextNet(vocab, embDim, hidden int, g *rng.RNG) *Network {
	return NewNetwork(NewEmbeddingBag(vocab, embDim, g.Split("emb")),
		NewLinear(embDim, hidden, g.Split("l1")),
		NewTanh(hidden),
		NewLinear(hidden, vocab, g.Split("l2")),
	)
}

// Classes returns the number of output classes.
func (n *Network) Classes() int { return n.classes }

// Params returns all trainable parameters in a fixed order.
func (n *Network) Params() []*Param { return n.params }

// NumWeights returns the total number of scalar weights.
func (n *Network) NumWeights() int {
	total := 0
	for _, p := range n.params {
		total += p.Size()
	}
	return total
}

// Logits runs a forward pass and returns the class logits. The returned
// slice is owned by the network and valid until the next forward pass.
func (n *Network) Logits(in Input) tensor.Vec {
	var x tensor.Vec
	switch {
	case n.Embed != nil:
		x = n.Embed.ForwardTokens(in.Tokens)
	case in.Features != nil:
		x = in.Features
	default:
		panic("nn: input has neither features nor an embedding front-end")
	}
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Predict returns the argmax class for the input.
func (n *Network) Predict(in Input) int { return n.Logits(in).ArgMax() }

// LossAndBackward runs forward + softmax cross-entropy + backward for one
// example, accumulating parameter gradients. It returns the loss.
func (n *Network) LossAndBackward(in Input, label int) float64 {
	logits := n.Logits(in)
	if label < 0 || label >= n.classes {
		panic(fmt.Sprintf("nn: label %d out of %d classes", label, n.classes))
	}
	copy(n.probs, logits)
	n.probs.SoftmaxInPlace()
	loss := -math.Log(math.Max(n.probs[label], 1e-12))
	// dL/dlogits = p - onehot(label)
	n.probs[label] -= 1
	grad := n.probs
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	if n.Embed != nil {
		n.Embed.BackwardTokens(grad)
	}
	return loss
}

// Loss computes the cross-entropy loss without a backward pass.
func (n *Network) Loss(in Input, label int) float64 {
	logits := n.Logits(in)
	return logits.LogSumExp() - logits[label]
}

// ZeroGrad clears all parameter gradients (one pass over the arena).
func (n *Network) ZeroGrad() { n.flatG.Zero() }

// ParamsVec returns the network's live flat parameter storage — a view, not
// a copy. Writing through it (or stepping an optimizer over it) mutates the
// model directly; the layout matches FlattenParams/SetParams.
func (n *Network) ParamsVec() tensor.Vec { return n.flatW }

// GradsVec returns the live flat gradient storage (view, FlattenGrads
// layout). Valid between ZeroGrad and the next backward pass like any
// gradient accumulator.
func (n *Network) GradsVec() tensor.Vec { return n.flatG }

// FlattenParams copies all weights into dst, which must have length
// NumWeights. The order is stable across calls and across replicas built by
// the same constructor.
func (n *Network) FlattenParams(dst tensor.Vec) {
	if len(dst) != len(n.flatW) {
		panic(fmt.Sprintf("nn: FlattenParams dst length %d, want %d", len(dst), len(n.flatW)))
	}
	copy(dst, n.flatW)
}

// SetParams copies the flat weight vector src into the network parameters.
func (n *Network) SetParams(src tensor.Vec) {
	if len(src) != len(n.flatW) {
		panic(fmt.Sprintf("nn: SetParams src length %d, want %d", len(src), len(n.flatW)))
	}
	copy(n.flatW, src)
}

// FlattenGrads copies all gradients into dst (length NumWeights).
func (n *Network) FlattenGrads(dst tensor.Vec) {
	if len(dst) != len(n.flatG) {
		panic(fmt.Sprintf("nn: FlattenGrads dst length %d, want %d", len(dst), len(n.flatG)))
	}
	copy(dst, n.flatG)
}

// HasNaN reports whether any weight is NaN/Inf (training divergence).
func (n *Network) HasNaN() bool {
	for _, p := range n.params {
		if p.W.HasNaN() {
			return true
		}
	}
	return false
}
