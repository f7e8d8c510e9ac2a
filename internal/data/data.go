// Package data synthesizes the federated client populations used in the
// study. The paper evaluates on CIFAR10 (Dirichlet-partitioned), FEMNIST,
// StackOverflow, and Reddit; this package generates populations that mirror
// each dataset's published statistics (Table 1/2 of the paper: client counts,
// per-client example counts including min/max skew, task type) and its
// heterogeneity structure, while replacing pixels/tokens with synthetic
// content:
//
//   - Image-like tasks draw class-conditional Gaussian features with
//     per-client Dirichlet label skew (Hsu et al., 2019) plus a per-client
//     style shift.
//   - Text-like tasks generate next-token-prediction examples from per-client
//     topic mixtures over a Zipf vocabulary.
//
// The phenomena the paper studies — subsampling variance, heterogeneity bias,
// DP sensitivity — are statistical properties of the client population, which
// these generators preserve. See DESIGN.md §2 for the substitution argument.
package data

import (
	"fmt"
	"math"

	"noisyeval/internal/nn"
	"noisyeval/internal/rng"
	"noisyeval/internal/tensor"
)

// TaskKind distinguishes the two task families in the study.
type TaskKind int

const (
	// ImageClassification is dense-feature classification (CIFAR10-like,
	// FEMNIST-like; the paper trains 2-layer CNNs).
	ImageClassification TaskKind = iota
	// NextTokenPrediction is token-context classification over a vocabulary
	// (StackOverflow-like, Reddit-like; the paper trains 2-layer LSTMs).
	NextTokenPrediction
)

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	switch k {
	case ImageClassification:
		return "image classification"
	case NextTokenPrediction:
		return "next token prediction"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Example is one labelled sample.
type Example struct {
	Features tensor.Vec // dense tasks
	Tokens   []int      // text tasks (context window)
	Label    int
}

// Input converts the example to a model input.
func (e Example) Input() nn.Input { return nn.Input{Features: e.Features, Tokens: e.Tokens} }

// Client is one device with a local dataset.
type Client struct {
	ID       int
	Examples []Example
}

// NumExamples returns the local dataset size.
func (c *Client) NumExamples() int { return len(c.Examples) }

// Spec describes a synthetic federated population. The four constructors
// below mirror the paper's datasets; Scaled derives cheaper variants with the
// same shape.
type Spec struct {
	Name string
	Kind TaskKind

	TrainClients int
	EvalClients  int

	// Per-client example count distribution (log-normal clipped to
	// [MinExamples, MaxExamples] with mean ~MeanExamples).
	MeanExamples int
	MinExamples  int
	MaxExamples  int

	// Image-task shape.
	Classes      int
	FeatureDim   int
	LabelAlpha   float64 // Dirichlet concentration for client label skew
	FeatureNoise float64 // within-class feature stddev
	ClientShift  float64 // per-client style shift stddev

	// Text-task shape.
	Vocab      int
	ContextLen int
	Topics     int
	TopicAlpha float64 // Dirichlet concentration for client topic mixtures
	TopicZipf  float64 // Zipf exponent of each topic's token distribution

	// Model shape used by NewModel.
	Hidden   int
	EmbedDim int
}

// CIFAR10Like mirrors the paper's CIFAR10 setup: 400 train / 100 eval
// clients, ~100 examples each (83–131), 10 classes, Dirichlet α=0.1 label
// partition (strongly non-iid).
func CIFAR10Like() Spec {
	return Spec{
		Name: "cifar10", Kind: ImageClassification,
		TrainClients: 400, EvalClients: 100,
		MeanExamples: 100, MinExamples: 83, MaxExamples: 131,
		Classes: 10, FeatureDim: 24, LabelAlpha: 0.1,
		FeatureNoise: 2.2, ClientShift: 0.5,
		Hidden: 48,
	}
}

// FEMNISTLike mirrors FEMNIST: 3507 train / 360 eval clients, mean 203
// examples (19–393), 62 classes, natural per-writer heterogeneity (moderate
// label skew plus a writer-style shift).
func FEMNISTLike() Spec {
	return Spec{
		Name: "femnist", Kind: ImageClassification,
		TrainClients: 3507, EvalClients: 360,
		MeanExamples: 203, MinExamples: 19, MaxExamples: 393,
		Classes: 62, FeatureDim: 24, LabelAlpha: 1.0,
		FeatureNoise: 0.9, ClientShift: 0.45,
		Hidden: 48,
	}
}

// StackOverflowLike mirrors StackOverflow: 10815 train / 3678 eval clients,
// mean 391 examples with an extreme long tail (1–194167; the tail is capped
// when scaled), next-token prediction.
func StackOverflowLike() Spec {
	return Spec{
		Name: "stackoverflow", Kind: NextTokenPrediction,
		TrainClients: 10815, EvalClients: 3678,
		MeanExamples: 391, MinExamples: 1, MaxExamples: 194167,
		Vocab: 64, ContextLen: 6, Topics: 8, TopicAlpha: 0.5, TopicZipf: 1.3,
		Hidden: 32, EmbedDim: 16,
	}
}

// RedditLike mirrors Reddit (December 2017, pushshift.io): 40000 train /
// 9928 eval clients, mean 19 examples (1–14440), next-token prediction with
// stronger per-client topic concentration than StackOverflow.
func RedditLike() Spec {
	return Spec{
		Name: "reddit", Kind: NextTokenPrediction,
		TrainClients: 40000, EvalClients: 9928,
		MeanExamples: 19, MinExamples: 1, MaxExamples: 14440,
		Vocab: 64, ContextLen: 6, Topics: 8, TopicAlpha: 0.15, TopicZipf: 1.3,
		Hidden: 32, EmbedDim: 16,
	}
}

// AllSpecs returns the four dataset specs in the paper's order.
func AllSpecs() []Spec {
	return []Spec{CIFAR10Like(), FEMNISTLike(), StackOverflowLike(), RedditLike()}
}

// Scaled returns a copy with client counts multiplied by f (minimum 4 train
// / 4 eval clients) and the per-client example tail capped at capExamples
// (0 = no cap). Percent-of-population subsample axes are preserved.
func (s Spec) Scaled(f float64, capExamples int) Spec {
	if f <= 0 {
		panic(fmt.Sprintf("data: scale factor %g must be positive", f))
	}
	out := s
	out.TrainClients = maxInt(4, int(math.Round(float64(s.TrainClients)*f)))
	out.EvalClients = maxInt(4, int(math.Round(float64(s.EvalClients)*f)))
	if capExamples > 0 {
		if out.MaxExamples > capExamples {
			out.MaxExamples = capExamples
		}
		if out.MeanExamples > capExamples {
			out.MeanExamples = capExamples
		}
		if out.MinExamples > out.MaxExamples {
			out.MinExamples = out.MaxExamples
		}
	}
	return out
}

// Validate checks internal consistency.
func (s Spec) Validate() error {
	if s.TrainClients <= 0 || s.EvalClients <= 0 {
		return fmt.Errorf("data: %s: client counts must be positive", s.Name)
	}
	if s.MinExamples < 1 || s.MinExamples > s.MaxExamples || s.MeanExamples < s.MinExamples || s.MeanExamples > s.MaxExamples {
		return fmt.Errorf("data: %s: example counts min=%d mean=%d max=%d inconsistent", s.Name, s.MinExamples, s.MeanExamples, s.MaxExamples)
	}
	switch s.Kind {
	case ImageClassification:
		if s.Classes < 2 || s.FeatureDim < 1 || s.LabelAlpha <= 0 {
			return fmt.Errorf("data: %s: bad image task shape", s.Name)
		}
	case NextTokenPrediction:
		if s.Vocab < 2 || s.ContextLen < 1 || s.Topics < 1 || s.TopicAlpha <= 0 {
			return fmt.Errorf("data: %s: bad text task shape", s.Name)
		}
	default:
		return fmt.Errorf("data: %s: unknown task kind %d", s.Name, int(s.Kind))
	}
	return nil
}

// NumClasses returns the prediction-head width (classes or vocab).
func (s Spec) NumClasses() int {
	if s.Kind == NextTokenPrediction {
		return s.Vocab
	}
	return s.Classes
}

// Population is a generated federated dataset: disjoint train and validation
// client pools (the paper partitions data by client; §2.1).
type Population struct {
	Spec  Spec
	Train []*Client
	Val   []*Client

	// Generator state shared by train and eval clients so that both pools
	// come from the same underlying task.
	protos      []tensor.Vec // image: class prototypes
	topicTokens []*rng.Zipf  // text: per-topic token samplers
	topicPerm   [][]int      // text: per-topic rank->token permutation
}

// Generate synthesizes a population from spec. Generation is deterministic
// in g's stream: the same seed and spec produce the same population.
func Generate(spec Spec, g *rng.RNG) (*Population, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Population{Spec: spec}
	switch spec.Kind {
	case ImageClassification:
		p.genImageTask(g)
	case NextTokenPrediction:
		p.genTextTask(g)
	}
	return p, nil
}

// MustGenerate is Generate that panics on an invalid spec.
func MustGenerate(spec Spec, g *rng.RNG) *Population {
	p, err := Generate(spec, g)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Population) genImageTask(g *rng.RNG) {
	s := p.Spec
	// Class prototypes, shared across all clients.
	protoRNG := g.Split("protos")
	p.protos = make([]tensor.Vec, s.Classes)
	for c := range p.protos {
		v := tensor.NewVec(s.FeatureDim)
		for i := range v {
			v[i] = protoRNG.Normal(0, 1)
		}
		p.protos[c] = v
	}
	p.Train = p.genImageClients("train", s.TrainClients, g)
	p.Val = p.genImageClients("val", s.EvalClients, g)
}

func (p *Population) genImageClients(pool string, n int, g *rng.RNG) []*Client {
	s := p.Spec
	clients := make([]*Client, n)
	for k := 0; k < n; k++ {
		cg := g.Splitf("%s-client-%d", pool, k)
		labelDist := cg.Dirichlet(s.LabelAlpha, s.Classes)
		shift := tensor.NewVec(s.FeatureDim)
		for i := range shift {
			shift[i] = cg.Normal(0, s.ClientShift)
		}
		count := sampleCount(s, cg)
		ex := make([]Example, count)
		for i := range ex {
			label := cg.Categorical(labelDist)
			f := tensor.NewVec(s.FeatureDim)
			proto := p.protos[label]
			for d := range f {
				f[d] = proto[d] + shift[d] + cg.Normal(0, s.FeatureNoise)
			}
			ex[i] = Example{Features: f, Label: label}
		}
		clients[k] = &Client{ID: k, Examples: ex}
	}
	return clients
}

func (p *Population) genTextTask(g *rng.RNG) {
	s := p.Spec
	topicRNG := g.Split("topics")
	p.topicTokens = make([]*rng.Zipf, s.Topics)
	p.topicPerm = make([][]int, s.Topics)
	for t := 0; t < s.Topics; t++ {
		// Each topic is a Zipf distribution over a topic-specific permutation
		// of the vocabulary, so topics share tokens but with different heads.
		p.topicTokens[t] = rng.NewZipf(s.TopicZipf, s.Vocab)
		p.topicPerm[t] = topicRNG.Perm(s.Vocab)
	}
	p.Train = p.genTextClients("train", s.TrainClients, g)
	p.Val = p.genTextClients("val", s.EvalClients, g)
}

func (p *Population) genTextClients(pool string, n int, g *rng.RNG) []*Client {
	s := p.Spec
	clients := make([]*Client, n)
	for k := 0; k < n; k++ {
		cg := g.Splitf("%s-client-%d", pool, k)
		topicMix := cg.Dirichlet(s.TopicAlpha, s.Topics)
		count := sampleCount(s, cg)
		ex := make([]Example, count)
		for i := range ex {
			topic := cg.Categorical(topicMix)
			ctx := make([]int, s.ContextLen)
			for j := range ctx {
				ctx[j] = p.sampleToken(topic, cg)
			}
			ex[i] = Example{Tokens: ctx, Label: p.sampleToken(topic, cg)}
		}
		clients[k] = &Client{ID: k, Examples: ex}
	}
	return clients
}

func (p *Population) sampleToken(topic int, g *rng.RNG) int {
	rank := p.topicTokens[topic].Sample(g)
	return p.topicPerm[topic][rank]
}

// sampleCount draws a per-client example count from a log-normal clipped to
// [MinExamples, MaxExamples], with the log-mean at MeanExamples. This
// reproduces the long-tailed client-size skew of Table 2.
func sampleCount(s Spec, g *rng.RNG) int {
	if s.MinExamples == s.MaxExamples {
		return s.MinExamples
	}
	sigma := math.Log(float64(s.MaxExamples)/float64(s.MeanExamples)) / 3
	if sigma < 0.05 {
		sigma = 0.05
	}
	x := math.Exp(g.Normal(math.Log(float64(s.MeanExamples)), sigma))
	n := int(math.Round(x))
	if n < s.MinExamples {
		n = s.MinExamples
	}
	if n > s.MaxExamples {
		n = s.MaxExamples
	}
	return n
}

// NewModel builds the study's model for this population: a 2-layer MLP for
// image tasks or an EmbeddingBag text network for next-token tasks.
func (p *Population) NewModel(g *rng.RNG) *nn.Network {
	s := p.Spec
	switch s.Kind {
	case ImageClassification:
		return nn.NewMLP(s.FeatureDim, s.Hidden, s.Classes, g)
	case NextTokenPrediction:
		return nn.NewTextNet(s.Vocab, s.EmbedDim, s.Hidden, g)
	default:
		panic(fmt.Sprintf("data: unknown task kind %d", int(s.Kind)))
	}
}

// Stats summarises a client pool (Table 1/2 of the paper).
type Stats struct {
	Clients       int
	TotalExamples int
	MeanExamples  float64
	MinExamples   int
	MaxExamples   int
}

// PoolStats computes example-count statistics over clients.
func PoolStats(clients []*Client) Stats {
	st := Stats{Clients: len(clients)}
	if len(clients) == 0 {
		return st
	}
	st.MinExamples = clients[0].NumExamples()
	for _, c := range clients {
		n := c.NumExamples()
		st.TotalExamples += n
		if n < st.MinExamples {
			st.MinExamples = n
		}
		if n > st.MaxExamples {
			st.MaxExamples = n
		}
	}
	st.MeanExamples = float64(st.TotalExamples) / float64(len(clients))
	return st
}

// RepartitionIID returns a new eval-client pool in which each client has
// resampled a fraction p of its local data uniformly from the pooled
// evaluation data (Caldas et al., 2018, extended with the paper's fractional
// scheme in §3.2): p=0 leaves clients unchanged (natural non-iid), p=1 makes
// every client an iid sample of the pool. Client sizes are preserved. It is
// RepartitionSources with the indices replaced by the examples they name.
func RepartitionIID(clients []*Client, p float64, g *rng.RNG) []*Client {
	src := RepartitionSources(clients, p, g)
	pool := PooledExamples(clients)
	out := make([]*Client, len(clients))
	for k, c := range clients {
		ex := make([]Example, len(src[k]))
		for i, at := range src[k] {
			ex[i] = pool[at]
		}
		out[k] = &Client{ID: c.ID, Examples: ex}
	}
	return out
}

// RepartitionSources is the repartition as indices: src[k][i] is the position
// in PooledExamples(clients) of the example that slot i of client k holds
// under fraction p — the client's own example where the slot was kept, a
// uniform draw from the pool where it was resampled. An evaluation that has
// judged every pooled example once can score any partition from these
// without forwarding an example again (core.BuildPlan does).
func RepartitionSources(clients []*Client, p float64, g *rng.RNG) [][]int32 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("data: RepartitionIID fraction %g outside [0, 1]", p))
	}
	total := PoolStats(clients).TotalExamples
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("data: %d pooled examples overflow a source index", total))
	}
	src := make([][]int32, len(clients))
	own := 0 // pooled position of the client's first example
	for k, c := range clients {
		cg := g.Splitf("repartition-%d", k)
		src[k] = make([]int32, len(c.Examples))
		for i := range src[k] {
			src[k][i] = int32(own + i)
			if cg.Bool(p) {
				src[k][i] = int32(cg.IntN(total))
			}
		}
		own += len(c.Examples)
	}
	return src
}

// PooledExamples flattens all clients' examples into one slice (the shared
// distribution used for iid repartitioning and server-side proxy pools).
func PooledExamples(clients []*Client) []Example {
	total := 0
	for _, c := range clients {
		total += len(c.Examples)
	}
	out := make([]Example, 0, total)
	for _, c := range clients {
		out = append(out, c.Examples...)
	}
	return out
}

// ClientWeights returns the evaluation weights p_val,k of Eq. 2: each
// client's example count when weighted is true (the paper's default), or 1
// for every client when weighted is false (used under differential privacy
// to bound sensitivity independently of local dataset sizes; footnote 1).
func ClientWeights(clients []*Client, weighted bool) []float64 {
	w := make([]float64, len(clients))
	for i, c := range clients {
		if weighted {
			w[i] = float64(c.NumExamples())
		} else {
			w[i] = 1
		}
	}
	return w
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
