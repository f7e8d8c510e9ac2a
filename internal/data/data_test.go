package data

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"noisyeval/internal/rng"
)

func tinyImageSpec() Spec {
	s := CIFAR10Like()
	s.TrainClients, s.EvalClients = 12, 6
	s.MeanExamples, s.MinExamples, s.MaxExamples = 20, 10, 30
	return s
}

func tinyTextSpec() Spec {
	s := RedditLike()
	s.TrainClients, s.EvalClients = 10, 5
	s.MeanExamples, s.MinExamples, s.MaxExamples = 12, 4, 25
	return s
}

func TestSpecsValidate(t *testing.T) {
	for _, s := range AllSpecs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSpecsMatchPaperTable(t *testing.T) {
	// Table 2 of the paper.
	want := map[string][5]int{ // train, eval, mean, min, max
		"cifar10":       {400, 100, 100, 83, 131},
		"femnist":       {3507, 360, 203, 19, 393},
		"stackoverflow": {10815, 3678, 391, 1, 194167},
		"reddit":        {40000, 9928, 19, 1, 14440},
	}
	for _, s := range AllSpecs() {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected spec %s", s.Name)
		}
		got := [5]int{s.TrainClients, s.EvalClients, s.MeanExamples, s.MinExamples, s.MaxExamples}
		if got != w {
			t.Errorf("%s stats = %v, want %v", s.Name, got, w)
		}
	}
}

func TestTaskKinds(t *testing.T) {
	if CIFAR10Like().Kind != ImageClassification || FEMNISTLike().Kind != ImageClassification {
		t.Error("image specs mis-kinded")
	}
	if StackOverflowLike().Kind != NextTokenPrediction || RedditLike().Kind != NextTokenPrediction {
		t.Error("text specs mis-kinded")
	}
	if ImageClassification.String() == "" || NextTokenPrediction.String() == "" {
		t.Error("empty kind strings")
	}
}

func TestGenerateImagePopulation(t *testing.T) {
	p := MustGenerate(tinyImageSpec(), rng.New(1))
	if len(p.Train) != 12 || len(p.Val) != 6 {
		t.Fatalf("pools = %d/%d", len(p.Train), len(p.Val))
	}
	for _, c := range append(append([]*Client{}, p.Train...), p.Val...) {
		if len(c.Examples) < 10 || len(c.Examples) > 30 {
			t.Fatalf("client %d has %d examples", c.ID, len(c.Examples))
		}
		for _, ex := range c.Examples {
			if ex.Label < 0 || ex.Label >= 10 {
				t.Fatalf("label %d out of range", ex.Label)
			}
			if len(ex.Features) != p.Spec.FeatureDim {
				t.Fatalf("feature dim %d", len(ex.Features))
			}
			if ex.Tokens != nil {
				t.Fatal("image example has tokens")
			}
		}
	}
}

func TestGenerateTextPopulation(t *testing.T) {
	p := MustGenerate(tinyTextSpec(), rng.New(2))
	for _, c := range p.Train {
		for _, ex := range c.Examples {
			if len(ex.Tokens) != p.Spec.ContextLen {
				t.Fatalf("context len %d", len(ex.Tokens))
			}
			for _, tok := range ex.Tokens {
				if tok < 0 || tok >= p.Spec.Vocab {
					t.Fatalf("token %d out of vocab", tok)
				}
			}
			if ex.Label < 0 || ex.Label >= p.Spec.Vocab {
				t.Fatalf("label %d out of vocab", ex.Label)
			}
			if ex.Features != nil {
				t.Fatal("text example has dense features")
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(tinyImageSpec(), rng.New(9))
	b := MustGenerate(tinyImageSpec(), rng.New(9))
	for k := range a.Train {
		ea, eb := a.Train[k].Examples, b.Train[k].Examples
		if len(ea) != len(eb) {
			t.Fatalf("client %d sizes differ", k)
		}
		for i := range ea {
			if ea[i].Label != eb[i].Label || ea[i].Features[0] != eb[i].Features[0] {
				t.Fatalf("client %d example %d differs", k, i)
			}
		}
	}
}

func TestGenerateInvalidSpec(t *testing.T) {
	s := tinyImageSpec()
	s.Classes = 1
	if _, err := Generate(s, rng.New(1)); err == nil {
		t.Fatal("expected error for 1-class spec")
	}
	s2 := tinyImageSpec()
	s2.MinExamples = 50 // > max
	s2.MaxExamples = 30
	if _, err := Generate(s2, rng.New(1)); err == nil {
		t.Fatal("expected error for min > max")
	}
}

func TestDirichletSkewProducesHeterogeneousLabels(t *testing.T) {
	// With alpha=0.1 most clients should be dominated by few classes.
	s := tinyImageSpec()
	s.MeanExamples, s.MinExamples, s.MaxExamples = 100, 100, 100
	p := MustGenerate(s, rng.New(3))
	dominated := 0
	for _, c := range p.Train {
		counts := make([]int, s.Classes)
		for _, ex := range c.Examples {
			counts[ex.Label]++
		}
		maxCount := 0
		for _, n := range counts {
			if n > maxCount {
				maxCount = n
			}
		}
		if float64(maxCount) > 0.5*float64(len(c.Examples)) {
			dominated++
		}
	}
	if frac := float64(dominated) / float64(len(p.Train)); frac < 0.5 {
		t.Errorf("only %.2f of alpha=0.1 clients are label-dominated; want most", frac)
	}
}

func TestScaled(t *testing.T) {
	s := StackOverflowLike().Scaled(0.1, 500)
	if s.TrainClients != 1082 && s.TrainClients != 1081 {
		t.Errorf("scaled train clients = %d", s.TrainClients)
	}
	if s.MaxExamples != 500 {
		t.Errorf("cap not applied: %d", s.MaxExamples)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled spec invalid: %v", err)
	}
	// Scaling never goes below 4 clients.
	tiny := CIFAR10Like().Scaled(1e-9, 0)
	if tiny.TrainClients != 4 || tiny.EvalClients != 4 {
		t.Errorf("floor not applied: %d/%d", tiny.TrainClients, tiny.EvalClients)
	}
}

func TestScaledPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CIFAR10Like().Scaled(0, 0)
}

func TestPoolStats(t *testing.T) {
	clients := []*Client{
		{ID: 0, Examples: make([]Example, 5)},
		{ID: 1, Examples: make([]Example, 15)},
	}
	st := PoolStats(clients)
	if st.Clients != 2 || st.TotalExamples != 20 || st.MeanExamples != 10 || st.MinExamples != 5 || st.MaxExamples != 15 {
		t.Errorf("stats = %+v", st)
	}
	if empty := PoolStats(nil); empty.Clients != 0 || empty.TotalExamples != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestRepartitionIIDPreservesSizes(t *testing.T) {
	p := MustGenerate(tinyImageSpec(), rng.New(4))
	out := RepartitionIID(p.Val, 0.5, rng.New(5))
	if len(out) != len(p.Val) {
		t.Fatalf("client count changed")
	}
	for k := range out {
		if len(out[k].Examples) != len(p.Val[k].Examples) {
			t.Fatalf("client %d size changed", k)
		}
	}
}

func TestRepartitionIIDZeroIsIdentity(t *testing.T) {
	p := MustGenerate(tinyImageSpec(), rng.New(6))
	out := RepartitionIID(p.Val, 0, rng.New(7))
	for k := range out {
		for i := range out[k].Examples {
			if out[k].Examples[i].Label != p.Val[k].Examples[i].Label {
				t.Fatal("p=0 must leave clients unchanged")
			}
		}
	}
}

func TestRepartitionIIDOneHomogenizes(t *testing.T) {
	// After p=1, per-client label distributions should be close to the pool's.
	s := tinyImageSpec()
	s.EvalClients = 8
	s.MeanExamples, s.MinExamples, s.MaxExamples = 200, 200, 200
	p := MustGenerate(s, rng.New(8))
	out := RepartitionIID(p.Val, 1, rng.New(9))

	poolDist := labelDist(PooledExamples(p.Val), s.Classes)
	var worst float64
	for _, c := range out {
		d := labelDist(c.Examples, s.Classes)
		for cls := range d {
			if diff := math.Abs(d[cls] - poolDist[cls]); diff > worst {
				worst = diff
			}
		}
	}
	if worst > 0.15 {
		t.Errorf("p=1 client label dist deviates %.3f from pool; want near-iid", worst)
	}
	// And the natural partition must NOT be near-iid for comparison.
	var worstNat float64
	for _, c := range p.Val {
		d := labelDist(c.Examples, s.Classes)
		for cls := range d {
			if diff := math.Abs(d[cls] - poolDist[cls]); diff > worstNat {
				worstNat = diff
			}
		}
	}
	if worstNat < worst {
		t.Errorf("natural partition (%.3f) should be more skewed than iid (%.3f)", worstNat, worst)
	}
}

// hashClients hashes every client's ID and every example's label, feature
// bits and tokens, in order.
func hashClients(clients []*Client) string {
	h := sha256.New()
	var buf [8]byte
	w := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, c := range clients {
		w(uint64(c.ID))
		w(uint64(len(c.Examples)))
		for _, ex := range c.Examples {
			w(uint64(ex.Label))
			for _, f := range ex.Features {
				w(math.Float64bits(f))
			}
			for _, tok := range ex.Tokens {
				w(uint64(tok))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRepartitionSources pins RepartitionIID's output and its stream use to
// hashes recorded on the loop that copied examples and kept no indices, and
// RepartitionSources to it: slot i of client k is the pooled example at
// src[k][i] — same label, same feature/token backing array — sizes kept.
func TestRepartitionSources(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		p    float64
		want string
	}{
		{"image p=0.5", tinyImageSpec(), 0.5, "d2a2ba886a47849a9b9e789cc919e6620a677d3262ad858f2a59395119873603"},
		{"image p=1", tinyImageSpec(), 1, "97d3a001b8657afa79e68c397680cdff8be5398a3df1b7e51d66f6b3deda6342"},
		{"text p=0.5", tinyTextSpec(), 0.5, "c75e66d46468cb742271e5b0960c03dd5eab7a57a45fe470cb0441a63e5077c6"},
		{"text p=0", tinyTextSpec(), 0, "e0de269327fff287c96f4ad4a7653c6d23361b7b5027386ee8bb458ebfc97d13"},
	} {
		pop := MustGenerate(tc.spec, rng.New(31))
		g := rng.New(32)
		out := RepartitionIID(pop.Val, tc.p, g)
		// Every draw comes from a labelled split, so g itself has not moved.
		const wantNext = 7652054832869399581
		if got, next := hashClients(out), g.Uint64(); got != tc.want || next != wantNext {
			t.Errorf("%s: clients %s then Uint64 %d, recorded %s then %d", tc.name, got, next, tc.want, uint64(wantNext))
		}

		src, pool := RepartitionSources(pop.Val, tc.p, rng.New(32)), PooledExamples(pop.Val)
		if len(src) != len(out) {
			t.Fatalf("%s: %d source lists for %d clients", tc.name, len(src), len(out))
		}
		moved, own := 0, 0 // own: pooled position of client k's first example
		for k, c := range out {
			if len(src[k]) != len(c.Examples) || len(c.Examples) != len(pop.Val[k].Examples) {
				t.Fatalf("%s: client %d has %d sources, %d examples, %d before", tc.name, k, len(src[k]), len(c.Examples), len(pop.Val[k].Examples))
			}
			for i, ex := range c.Examples {
				from := pool[src[k][i]]
				sameBacking := (len(ex.Features) == 0 || &ex.Features[0] == &from.Features[0]) &&
					(len(ex.Tokens) == 0 || &ex.Tokens[0] == &from.Tokens[0])
				if ex.Label != from.Label || len(ex.Features) != len(from.Features) || len(ex.Tokens) != len(from.Tokens) || !sameBacking {
					t.Fatalf("%s: client %d slot %d is not pooled example %d", tc.name, k, i, src[k][i])
				}
				if int(src[k][i]) != own+i {
					moved++
				}
			}
			own += len(c.Examples)
		}
		if (tc.p == 0) != (moved == 0) {
			t.Errorf("%s: %d slots resampled", tc.name, moved)
		}
	}
}

func TestRepartitionBadFractionPanics(t *testing.T) {
	p := MustGenerate(tinyImageSpec(), rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RepartitionIID(p.Val, 1.5, rng.New(1))
}

func TestClientWeights(t *testing.T) {
	clients := []*Client{
		{Examples: make([]Example, 3)},
		{Examples: make([]Example, 7)},
	}
	w := ClientWeights(clients, true)
	if w[0] != 3 || w[1] != 7 {
		t.Errorf("weighted = %v", w)
	}
	u := ClientWeights(clients, false)
	if u[0] != 1 || u[1] != 1 {
		t.Errorf("uniform = %v", u)
	}
}

func TestSampleCountBounds(t *testing.T) {
	g := rng.New(10)
	f := func(seed uint8) bool {
		s := StackOverflowLike().Scaled(0.01, 300)
		n := sampleCount(s, g.Splitf("c%d", seed))
		return n >= s.MinExamples && n <= s.MaxExamples
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleCountDegenerate(t *testing.T) {
	s := CIFAR10Like()
	s.MinExamples, s.MeanExamples, s.MaxExamples = 7, 7, 7
	if n := sampleCount(s, rng.New(1)); n != 7 {
		t.Errorf("degenerate count = %d", n)
	}
}

func TestNewModelShapes(t *testing.T) {
	img := MustGenerate(tinyImageSpec(), rng.New(11))
	m := img.NewModel(rng.New(12))
	if m.Classes() != 10 {
		t.Errorf("image model classes = %d", m.Classes())
	}
	txt := MustGenerate(tinyTextSpec(), rng.New(13))
	tm := txt.NewModel(rng.New(14))
	if tm.Classes() != txt.Spec.Vocab {
		t.Errorf("text model classes = %d", tm.Classes())
	}
	// Models must accept the population's own examples.
	_ = m.Predict(img.Train[0].Examples[0].Input())
	_ = tm.Predict(txt.Train[0].Examples[0].Input())
}

func TestPooledExamples(t *testing.T) {
	p := MustGenerate(tinyImageSpec(), rng.New(15))
	pool := PooledExamples(p.Val)
	want := 0
	for _, c := range p.Val {
		want += len(c.Examples)
	}
	if len(pool) != want {
		t.Errorf("pool size = %d, want %d", len(pool), want)
	}
}

func TestNumClasses(t *testing.T) {
	if CIFAR10Like().NumClasses() != 10 {
		t.Error("cifar classes")
	}
	if RedditLike().NumClasses() != RedditLike().Vocab {
		t.Error("reddit classes should equal vocab")
	}
}

func labelDist(ex []Example, classes int) []float64 {
	d := make([]float64, classes)
	for _, e := range ex {
		d[e.Label]++
	}
	for i := range d {
		d[i] /= float64(len(ex))
	}
	return d
}
