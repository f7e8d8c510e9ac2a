// Package fl implements the cross-device federated training loop of the
// study (Algorithm 2 in the paper's Appendix D): at every round the server
// samples a small client cohort uniformly without replacement, each client
// runs local SGD from the server weights (ClientOPT), and the server applies
// FedAdam (Reddi et al., 2020) to the aggregated pseudo-gradient (ServerOPT).
//
// The hyperparameters tuned by the study enter here: three server FedAdam
// HPs (learning rate, β1, β2, plus the fixed decay γ=0.9999) and client SGD
// HPs (learning rate, momentum, weight decay, batch size, epochs).
package fl

import (
	"fmt"
	"math"

	"noisyeval/internal/data"
	"noisyeval/internal/nn"
	"noisyeval/internal/opt"
	"noisyeval/internal/rng"
	"noisyeval/internal/tensor"
)

// HParams is one hyperparameter configuration θ, shared by all clients
// (the study tunes global HPs only; §2.1). Fields follow Appendix B.
type HParams struct {
	// Server FedAdam.
	ServerLR float64 // log10 lr ~ Unif[-6, -1]
	Beta1    float64 // Unif[0, 0.9]
	Beta2    float64 // Unif[0, 0.999]
	LRDecay  float64 // fixed 0.9999

	// Client SGD.
	ClientLR       float64 // log10 lr ~ Unif[-6, 0]
	ClientMomentum float64 // Unif[0, 0.9]
	WeightDecay    float64 // fixed 5e-5
	BatchSize      int     // {32, 64, 128}
	Epochs         int     // fixed 1
}

// DefaultFixed fills the paper's fixed HPs (γ, weight decay, epochs) into a
// copy of h, leaving tuned fields untouched.
func (h HParams) DefaultFixed() HParams {
	if h.LRDecay == 0 {
		h.LRDecay = 0.9999
	}
	if h.WeightDecay == 0 {
		h.WeightDecay = 5e-5
	}
	if h.Epochs == 0 {
		h.Epochs = 1
	}
	if h.BatchSize == 0 {
		h.BatchSize = 32
	}
	return h
}

// Validate reports structurally invalid configurations.
func (h HParams) Validate() error {
	if h.ServerLR <= 0 || h.ClientLR <= 0 {
		return fmt.Errorf("fl: learning rates must be positive (server %g, client %g)", h.ServerLR, h.ClientLR)
	}
	if h.Beta1 < 0 || h.Beta1 >= 1 || h.Beta2 < 0 || h.Beta2 >= 1 {
		return fmt.Errorf("fl: betas (%g, %g) outside [0, 1)", h.Beta1, h.Beta2)
	}
	if h.ClientMomentum < 0 || h.ClientMomentum >= 1 {
		return fmt.Errorf("fl: client momentum %g outside [0, 1)", h.ClientMomentum)
	}
	if h.BatchSize < 1 || h.Epochs < 1 {
		return fmt.Errorf("fl: batch size %d / epochs %d must be >= 1", h.BatchSize, h.Epochs)
	}
	return nil
}

// Options configures a Trainer beyond the tuned HParams.
type Options struct {
	// ClientsPerRound is the training cohort size (paper: 10).
	ClientsPerRound int
	// WeightedAggregation selects example-count weights p_tr,k (true) or
	// uniform weights (false) when averaging client updates; the paper
	// matches the training scheme to the evaluation scheme (footnote 1).
	WeightedAggregation bool
	// ClipNorm, when > 0, clips each client's local gradient norm. The
	// paper trains without clipping, so aggressive configurations genuinely
	// diverge and collapse to degenerate predictors (the lower-right points
	// of Figure 7); 0 (the default) preserves that behaviour.
	ClipNorm float64
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{ClientsPerRound: 10, WeightedAggregation: true}
}

// Trainer runs federated training of one configuration on one population.
// It is not safe for concurrent use; run one Trainer per goroutine.
//
// The trainer owns every buffer the round loop touches — optimizer state,
// RNG children, cohort/permutation scratch, minibatch assembly — so
// steady-state training performs no per-round heap allocation: client steps
// run in place over the model's contiguous parameter storage (nn.ParamsVec)
// rather than flattening weights and gradients into scratch vectors.
type Trainer struct {
	Pop  *data.Population
	HP   HParams
	Opts Options

	model     *nn.Network
	serverOpt *opt.Adam
	clientOpt *opt.SGD   // reused across clients; Reset starts each local solve
	weights   tensor.Vec // current server weights w
	delta     tensor.Vec // aggregated pseudo-gradient
	sumW      tensor.Vec // weighted sum of client weights
	round     int
	diverged  bool
	rng       *rng.RNG

	roundRNG  *rng.RNG // reusable child stream for cohort sampling
	clientRNG *rng.RNG // reusable child stream for per-client shuffles
	cohortBuf []int    // scratch for cohort sampling (len == #train clients)
	permBuf   []int    // scratch for per-client example permutations

	xBatch   tensor.Mat // minibatch feature assembly (dense tasks)
	ctxBatch [][]int    // minibatch token contexts (text tasks)
	labelBuf []int      // minibatch labels
	predBuf  []int      // batched evaluation predictions
	flagBuf  []uint8    // pooled evaluation: one wrong flag per pooled example
}

// NewTrainer initialises a trainer with model weights drawn from g's
// "init" split and training randomness from its "train" split, so the same
// (population, hp, seed) triple reproduces a run exactly.
func NewTrainer(pop *data.Population, hp HParams, opts Options, g *rng.RNG) (*Trainer, error) {
	hp = hp.DefaultFixed()
	if err := hp.Validate(); err != nil {
		return nil, err
	}
	if opts.ClientsPerRound <= 0 {
		return nil, fmt.Errorf("fl: ClientsPerRound must be positive, got %d", opts.ClientsPerRound)
	}
	if len(pop.Train) == 0 {
		return nil, fmt.Errorf("fl: population has no training clients")
	}
	model := pop.NewModel(g.Split("init"))
	dim := model.NumWeights()
	clientOpt := opt.NewSGD(dim, hp.ClientLR, hp.ClientMomentum, hp.WeightDecay)
	clientOpt.ClipNorm = opts.ClipNorm
	t := &Trainer{
		Pop: pop, HP: hp, Opts: opts,
		model:     model,
		serverOpt: opt.NewAdam(dim, hp.ServerLR, hp.Beta1, hp.Beta2, 1e-8, hp.LRDecay),
		clientOpt: clientOpt,
		weights:   tensor.NewVec(dim),
		delta:     tensor.NewVec(dim),
		sumW:      tensor.NewVec(dim),
		rng:       g.Split("train"),
		roundRNG:  rng.New(0),
		clientRNG: rng.New(0),
		cohortBuf: make([]int, len(pop.Train)),
	}
	t.rng.Path() // materialize once so hot-path splits stay allocation-free
	model.FlattenParams(t.weights)
	return t, nil
}

// Round executes one federated round: sample the cohort, train locally on
// each client, aggregate the weighted pseudo-gradient Δ = w − Σp_k w_k/Σp_k,
// and apply the FedAdam server update. After divergence (NaN weights) the
// trainer freezes; further rounds are no-ops.
func (t *Trainer) Round() {
	if t.diverged {
		t.round++
		return
	}
	cohortSize := t.Opts.ClientsPerRound
	if cohortSize > len(t.Pop.Train) {
		cohortSize = len(t.Pop.Train)
	}
	t.rng.SplitIntInto(t.roundRNG, "round-", t.round)
	cohort := t.roundRNG.SampleWithoutReplacementInto(len(t.Pop.Train), cohortSize, t.cohortBuf)

	t.sumW.Zero()
	totalWeight := 0.0
	for _, idx := range cohort {
		client := t.Pop.Train[idx]
		if len(client.Examples) == 0 {
			continue
		}
		t.localTrain(client)
		weight := 1.0
		if t.Opts.WeightedAggregation {
			weight = float64(len(client.Examples))
		}
		// The client's trained weights live in the model's own storage.
		t.sumW.Axpy(weight, t.model.ParamsVec())
		totalWeight += weight
	}
	if totalWeight == 0 {
		t.round++
		return
	}
	// Δ = w - (Σ p_k w_k) / Σ p_k; server Adam descends along Δ.
	copy(t.delta, t.weights)
	t.delta.Axpy(-1/totalWeight, t.sumW)
	t.serverOpt.Step(t.weights, t.delta)
	t.round++

	if t.weights.HasNaN() {
		t.diverged = true
	}
}

// localTrain runs the client's local solve (ClientOPT): Epochs passes of
// minibatch SGD with momentum and weight decay starting from the server
// weights. The trained weights are left in the model's parameter storage.
//
// Each minibatch is one batched forward/backward (trainStepBatched), and every
// optimizer step runs in place over the model's flat parameter and gradient
// views — no per-step full-vector copies.
func (t *Trainer) localTrain(client *data.Client) {
	w, g := t.model.ParamsVec(), t.model.GradsVec()
	copy(w, t.weights)
	t.clientOpt.Reset()

	n := len(client.Examples)
	t.rng.SplitInt2Into(t.clientRNG, "client-", client.ID, "-round-", t.round)
	if cap(t.permBuf) < n {
		t.permBuf = make([]int, n)
	}
	order := t.permBuf[:n]
	t.clientRNG.PermInto(order)

	b := t.HP.BatchSize
	for epoch := 0; epoch < t.HP.Epochs; epoch++ {
		for start := 0; start < n; start += b {
			end := start + b
			if end > n {
				end = n
			}
			t.model.ZeroGrad()
			t.trainStepBatched(client, order[start:end])
			g.Scale(1 / float64(end-start))
			t.clientOpt.Step(w, g)
		}
	}
}

// trainStepBatched assembles one minibatch into the trainer's reused buffers
// and runs a single batched forward/backward over it.
func (t *Trainer) trainStepBatched(client *data.Client, idxs []int) {
	bsz := len(idxs)
	if cap(t.labelBuf) < bsz {
		t.labelBuf = make([]int, bsz)
	}
	labels := t.labelBuf[:bsz]
	if t.model.Embed != nil {
		if cap(t.ctxBatch) < bsz {
			t.ctxBatch = make([][]int, bsz)
		}
		ctx := t.ctxBatch[:bsz]
		for j, i := range idxs {
			ex := &client.Examples[i]
			ctx[j] = ex.Tokens // contexts alias client data; no copy needed
			labels[j] = ex.Label
		}
		t.model.LossAndBackwardBatch(nil, ctx, labels)
		return
	}
	t.xBatch.Resize(bsz, len(client.Examples[idxs[0]].Features))
	for j, i := range idxs {
		ex := &client.Examples[i]
		copy(t.xBatch.Row(j), ex.Features)
		labels[j] = ex.Label
	}
	t.model.LossAndBackwardBatch(&t.xBatch, nil, labels)
}

// TrainTo advances training to the given round (no-op if already there).
func (t *Trainer) TrainTo(round int) {
	for t.round < round {
		t.Round()
	}
}

// Round number completed so far.
func (t *Trainer) RoundNum() int { return t.round }

// Diverged reports whether training hit NaN weights. Such models collapse
// to a degenerate constant predictor (argmax over NaN logits resolves to
// class 0), which is globally terrible yet near-perfect on clients whose
// skewed local data is dominated by that class — the mechanism behind the
// catastrophic systems-heterogeneity results (Figures 6–7 of the paper).
func (t *Trainer) Diverged() bool { return t.diverged }

// Weights returns a copy of the current server weights.
func (t *Trainer) Weights() tensor.Vec { return t.weights.Clone() }

// evalBatch is the chunk size for batched client evaluation.
const evalBatch = 128

// EvalClient returns the current model's error rate on one client's data
// (F_val,k in Eq. 2). A diverged model predicts class 0 on every example.
func (t *Trainer) EvalClient(client *data.Client) float64 {
	if len(client.Examples) == 0 {
		return 0
	}
	if t.diverged {
		wrong := 0
		for _, ex := range client.Examples {
			if ex.Label != 0 {
				wrong++
			}
		}
		return float64(wrong) / float64(len(client.Examples))
	}
	t.model.SetParams(t.weights)
	return t.evalClientErr(client)
}

// evalClientErr evaluates one client assuming the model already holds the
// server weights and training has not diverged.
func (t *Trainer) evalClientErr(client *data.Client) float64 {
	return float64(t.evalWrongBatched(client)) / float64(len(client.Examples))
}

// evalWrongBatched counts misclassifications with batched forward passes
// over evalBatch-sized chunks of the client's examples.
func (t *Trainer) evalWrongBatched(client *data.Client) int {
	exs := client.Examples
	wrong := 0
	for start := 0; start < len(exs); start += evalBatch {
		chunk := exs[start:min(start+evalBatch, len(exs))]
		for j, pred := range t.predictChunk(chunk) {
			if pred != chunk[j].Label {
				wrong++
			}
		}
	}
	return wrong
}

// predictChunk runs one batched forward pass over at most evalBatch examples
// and returns the predicted classes (valid until the next call). The model
// must already hold the server weights.
func (t *Trainer) predictChunk(exs []data.Example) []int {
	bsz := len(exs)
	if cap(t.predBuf) < bsz {
		t.predBuf = make([]int, bsz)
	}
	preds := t.predBuf[:bsz]
	if t.model.Embed != nil {
		if cap(t.ctxBatch) < bsz {
			t.ctxBatch = make([][]int, bsz)
		}
		ctx := t.ctxBatch[:bsz]
		for j := range exs {
			ctx[j] = exs[j].Tokens
		}
		t.model.PredictBatch(nil, ctx, preds)
		return preds
	}
	t.xBatch.Resize(bsz, len(exs[0].Features))
	for j := range exs {
		copy(t.xBatch.Row(j), exs[j].Features)
	}
	t.model.PredictBatch(&t.xBatch, nil, preds)
	return preds
}

// WrongFlags judges every example once: flags[i] is 1 where the current
// model misclassifies pool[i] and 0 where it is right (a diverged model
// predicts class 0). It is the per-checkpoint evaluation pass of a bank
// build: the pool is the validation clients' pooled examples, and every
// partition's per-client wrong-count is then a sum over these flags
// (WrongCountsInto) — an example repartitioning placed in three clients is
// forwarded once, in full evalBatch chunks. A count over the client's
// example count equals the rate EvalClients computes client by client: a
// logit row does not depend on which rows share its batch, and an error rate
// is a quotient of integer counts. The returned buffer belongs to the trainer and is valid until the
// next call.
func (t *Trainer) WrongFlags(pool []data.Example) []uint8 {
	if cap(t.flagBuf) < len(pool) {
		t.flagBuf = make([]uint8, len(pool))
	}
	flags := t.flagBuf[:len(pool)]
	if t.diverged {
		for i := range pool {
			flags[i] = b2u(pool[i].Label != 0)
		}
		return flags
	}
	t.model.SetParams(t.weights)
	for start := 0; start < len(pool); start += evalBatch {
		chunk := pool[start:min(start+evalBatch, len(pool))]
		for j, pred := range t.predictChunk(chunk) {
			flags[start+j] = b2u(pred != chunk[j].Label)
		}
	}
	return flags
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// WrongCountsInto writes one wrong-count per client from per-example wrong
// flags: dst[k] = Σ_i flags[src[k][i]], where src[k] lists the flag
// positions of client k's examples (data.RepartitionSources). Client k's
// error rate is float64(dst[k]) / float64(len(src[k])), or 0 when it has no
// examples — the division a bank's readers perform.
func WrongCountsInto(dst []uint32, flags []uint8, src [][]int32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("fl: WrongCountsInto dst has %d slots for %d clients", len(dst), len(src)))
	}
	for k, idx := range src {
		var wrong uint32
		for _, at := range idx {
			wrong += uint32(flags[at])
		}
		dst[k] = wrong
	}
}

// EvalClients returns the per-client error vector over a client pool. This
// vector is the raw material for every noisy-evaluation model in the study
// (subsampling, reweighting, biased selection, DP perturbation). The server
// weights are loaded into the model once for the whole pool.
func (t *Trainer) EvalClients(clients []*data.Client) []float64 {
	errs := make([]float64, len(clients))
	if !t.diverged {
		t.model.SetParams(t.weights)
	}
	for i, c := range clients {
		switch {
		case len(c.Examples) == 0:
			errs[i] = 0
		case t.diverged:
			errs[i] = t.EvalClient(c)
		default:
			errs[i] = t.evalClientErr(c)
		}
	}
	return errs
}

// FullValidationError evaluates Eq. 2 over the whole validation pool with
// the given weighting scheme — the paper's "full validation error" used for
// reporting final tuning quality.
func (t *Trainer) FullValidationError(weighted bool) float64 {
	errs := t.EvalClients(t.Pop.Val)
	w := data.ClientWeights(t.Pop.Val, weighted)
	return WeightedError(errs, w, nil)
}

// WeightedError computes Eq. 2 over a subset of clients: the weighted sum of
// client errors divided by the total weight. A nil subset means all clients.
// It panics if the subset is empty or the total weight is zero.
func WeightedError(errs, weights []float64, subset []int) float64 {
	if len(errs) != len(weights) {
		panic(fmt.Sprintf("fl: WeightedError lengths differ: %d vs %d", len(errs), len(weights)))
	}
	num, den := 0.0, 0.0
	if subset == nil {
		// All clients: iterate directly instead of materializing an index
		// slice — this sits inside every oracle evaluation.
		if len(errs) == 0 {
			panic("fl: WeightedError over empty subset")
		}
		for k, w := range weights {
			num += w * errs[k]
			den += w
		}
	} else {
		if len(subset) == 0 {
			panic("fl: WeightedError over empty subset")
		}
		for _, k := range subset {
			num += weights[k] * errs[k]
			den += weights[k]
		}
	}
	if den == 0 {
		panic("fl: WeightedError zero total weight")
	}
	v := num / den
	if math.IsNaN(v) {
		panic("fl: WeightedError produced NaN")
	}
	return v
}
