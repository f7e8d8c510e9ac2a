package opt

import (
	"math"
	"testing"

	"noisyeval/internal/rng"
	"noisyeval/internal/tensor"
)

func TestSGDPlainStep(t *testing.T) {
	s := NewSGD(2, 0.1, 0, 0)
	w := tensor.Vec{1, 2}
	s.Step(w, tensor.Vec{10, -10})
	if w[0] != 0 || w[1] != 3 {
		t.Fatalf("w = %v, want [0 3]", w)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	s := NewSGD(1, 0.1, 0.9, 0)
	w := tensor.Vec{0}
	s.Step(w, tensor.Vec{1}) // v=1, w=-0.1
	s.Step(w, tensor.Vec{1}) // v=1.9, w=-0.29
	if math.Abs(w[0]-(-0.29)) > 1e-12 {
		t.Fatalf("w = %v, want -0.29", w[0])
	}
}

func TestSGDWeightDecayPullsTowardZero(t *testing.T) {
	s := NewSGD(1, 0.1, 0, 0.5)
	w := tensor.Vec{2}
	s.Step(w, tensor.Vec{0})
	// g = 0 + 0.5*2 = 1; w = 2 - 0.1 = 1.9
	if math.Abs(w[0]-1.9) > 1e-12 {
		t.Fatalf("w = %v, want 1.9", w[0])
	}
}

func TestSGDClipNorm(t *testing.T) {
	s := NewSGD(2, 1, 0, 0)
	s.ClipNorm = 1
	w := tensor.Vec{0, 0}
	g := tensor.Vec{3, 4} // norm 5, clipped to [0.6, 0.8]
	s.Step(w, g)
	if math.Abs(w[0]+0.6) > 1e-12 || math.Abs(w[1]+0.8) > 1e-12 {
		t.Fatalf("w = %v, want [-0.6 -0.8]", w)
	}
}

func TestSGDClipNoopBelowThreshold(t *testing.T) {
	s := NewSGD(1, 1, 0, 0)
	s.ClipNorm = 100
	w := tensor.Vec{0}
	s.Step(w, tensor.Vec{2})
	if w[0] != -2 {
		t.Fatalf("w = %v", w[0])
	}
}

func TestSGDReset(t *testing.T) {
	s := NewSGD(1, 1, 0.9, 0)
	w := tensor.Vec{0}
	s.Step(w, tensor.Vec{1})
	s.Reset()
	w2 := tensor.Vec{0}
	s.Step(w2, tensor.Vec{1})
	if w2[0] != -1 {
		t.Fatalf("after Reset, step = %v, want -1 (no momentum carryover)", w2[0])
	}
}

func TestSGDValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative lr":  func() { NewSGD(1, -1, 0, 0) },
		"momentum >=1": func() { NewSGD(1, 0.1, 1, 0) },
		"dim mismatch": func() { NewSGD(2, 0.1, 0, 0).Step(tensor.Vec{1}, tensor.Vec{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAdamFirstStepIsSignedLR(t *testing.T) {
	// With bias correction, the first Adam step is approximately
	// -lr * sign(grad) regardless of gradient magnitude.
	a := NewAdam(2, 0.1, 0.9, 0.999, 1e-8, 1)
	w := tensor.Vec{0, 0}
	a.Step(w, tensor.Vec{1000, -0.001})
	if math.Abs(w[0]+0.1) > 1e-3 || math.Abs(w[1]-0.1) > 1e-3 {
		t.Fatalf("first step = %v, want ~[-0.1 0.1]", w)
	}
}

func TestAdamMatchesReferenceTrace(t *testing.T) {
	// Hand-computed two steps with beta1=0.5, beta2=0.5, eps=1e-8, lr=1.
	a := NewAdam(1, 1, 0.5, 0.5, 1e-8, 1)
	w := tensor.Vec{0}
	a.Step(w, tensor.Vec{2})
	// m=1, v=2; mhat=1/0.5=2, vhat=2/0.5=4; w -= 1*2/(2+eps) ≈ -1
	if math.Abs(w[0]+1) > 1e-6 {
		t.Fatalf("step1 w = %v, want ~-1", w[0])
	}
	a.Step(w, tensor.Vec{1})
	// m=0.5*1+0.5*1=1, v=0.5*2+0.5*1=1.5
	// b1c=0.75, b2c=0.75; mhat=4/3, vhat=2; w -= (4/3)/sqrt(2)
	want := -1 - (4.0/3.0)/math.Sqrt(2)
	if math.Abs(w[0]-want) > 1e-6 {
		t.Fatalf("step2 w = %v, want %v", w[0], want)
	}
}

func TestAdamLRDecay(t *testing.T) {
	a := NewAdam(1, 1, 0, 0, 1e-8, 0.5)
	w := tensor.Vec{0}
	a.Step(w, tensor.Vec{1}) // effective lr 1 -> step ~-1
	first := w[0]
	a.Step(w, tensor.Vec{1}) // effective lr 0.5 -> step ~-0.5
	second := w[0] - first
	if math.Abs(first+1) > 1e-6 || math.Abs(second+0.5) > 1e-6 {
		t.Fatalf("decayed steps = %v then %v, want ~-1 then ~-0.5", first, second)
	}
	if math.Abs(a.CurrentLR()-0.25) > 1e-12 {
		t.Fatalf("CurrentLR = %v, want 0.25", a.CurrentLR())
	}
}

func TestAdamZeroBetasIsSignSGD(t *testing.T) {
	// beta1=beta2=0 reduces Adam to signSGD with magnitude lr.
	a := NewAdam(1, 0.3, 0, 0, 1e-12, 1)
	w := tensor.Vec{0}
	a.Step(w, tensor.Vec{-7})
	if math.Abs(w[0]-0.3) > 1e-6 {
		t.Fatalf("signSGD step = %v, want 0.3", w[0])
	}
}

func TestAdamReset(t *testing.T) {
	a := NewAdam(1, 1, 0.9, 0.999, 1e-8, 0.5)
	w := tensor.Vec{0}
	a.Step(w, tensor.Vec{1})
	a.Reset()
	if a.StepCount() != 0 || a.CurrentLR() != 1 {
		t.Fatalf("Reset left t=%d lr=%v", a.StepCount(), a.CurrentLR())
	}
	w2 := tensor.Vec{0}
	a.Step(w2, tensor.Vec{1})
	if math.Abs(w2[0]+1) > 1e-3 {
		t.Fatalf("post-reset first step = %v, want ~-1", w2[0])
	}
}

func TestAdamValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative lr":  func() { NewAdam(1, -1, 0.9, 0.999, 1e-8, 1) },
		"beta1 >= 1":   func() { NewAdam(1, 1, 1, 0.999, 1e-8, 1) },
		"beta2 < 0":    func() { NewAdam(1, 1, 0.9, -0.1, 1e-8, 1) },
		"dim mismatch": func() { NewAdam(2, 1, 0, 0, 1e-8, 1).Step(tensor.Vec{1}, tensor.Vec{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAdamDefaults(t *testing.T) {
	a := NewAdam(1, 1, 0, 0, 0, 0)
	if a.Eps != 1e-8 {
		t.Errorf("default eps = %g", a.Eps)
	}
	if a.LRDecay != 1 {
		t.Errorf("default lr decay = %g", a.LRDecay)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = 0.5*||w - target||^2 with momentum SGD.
	target := tensor.Vec{3, -2, 1}
	w := tensor.Vec{0, 0, 0}
	s := NewSGD(3, 0.1, 0.5, 0)
	g := tensor.NewVec(3)
	for i := 0; i < 200; i++ {
		for j := range g {
			g[j] = w[j] - target[j]
		}
		s.Step(w, g)
	}
	for j := range w {
		if math.Abs(w[j]-target[j]) > 1e-6 {
			t.Fatalf("SGD did not converge: w = %v", w)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	target := tensor.Vec{3, -2, 1}
	w := tensor.Vec{0, 0, 0}
	a := NewAdam(3, 0.1, 0.9, 0.999, 1e-8, 1)
	g := tensor.NewVec(3)
	for i := 0; i < 2000; i++ {
		for j := range g {
			g[j] = w[j] - target[j]
		}
		a.Step(w, g)
	}
	for j := range w {
		if math.Abs(w[j]-target[j]) > 1e-3 {
			t.Fatalf("Adam did not converge: w = %v", w)
		}
	}
}

// specialVec draws n values at an odd element offset of their backing array
// (unaligned for vector loads): normals of the given scale with, here and
// there, zeros of both signs, ±Inf, NaN and subnormals.
func specialVec(g *rng.RNG, n int, scale float64) tensor.Vec {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 1e-310, 1e-160}
	v := tensor.Vec(make([]float64, n+1)[1:])
	for i := range v {
		if g.Bool(0.15) {
			v[i] = specials[g.IntN(len(specials))]
		} else {
			v[i] = g.Normal(0, scale)
		}
	}
	return v
}

func requireSameBits(t *testing.T, what string, n, step int, got, want tensor.Vec) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s n=%d step %d element %d: %x (%g), Go loop %x (%g)", what, n, step, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestElementwiseMatchGeneric pins both optimizer steps — the AVX2 kernel
// over the whole vectors plus the Go loop over the tail — to the Go loop
// over every element, bit for bit (NaN ≡ NaN), at every length from 0 to 70
// over several steps of evolving state, with -0, ±Inf, NaN and subnormal
// weights and gradients (so Adam meets vhat = 0 and subnormal vhat).
func TestElementwiseMatchGeneric(t *testing.T) {
	g := rng.New(20240613)
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 6; trial++ {
			w := specialVec(g, n, 1)
			if trial%2 == 0 {
				w = specialVec(g, n, 1e-3)
			}
			lr, mom, decay := g.LogUniform(1e-4, 10), g.Uniform(0, 0.95), []float64{0, 5e-5, 0.1}[trial%3]
			s, sRef := NewSGD(n, lr, mom, decay), NewSGD(n, lr, mom, decay)
			a := NewAdam(n, lr, g.Uniform(0, 0.9), g.Uniform(0, 0.999), 1e-8, 0.9999)
			aRef := NewAdam(n, a.LR, a.Beta1, a.Beta2, a.Eps, a.LRDecay)
			ws, wsRef, wa, waRef := w.Clone(), w.Clone(), w.Clone(), w.Clone()
			for step := 0; step < 4; step++ {
				grad := specialVec(g, n, []float64{1, 1e-3, 1e-170, 0}[step])

				s.Step(ws, grad)
				sRef.stepFrom(0, wsRef, grad)
				requireSameBits(t, "SGD w", n, step, ws, wsRef)
				requireSameBits(t, "SGD velocity", n, step, s.velocity, sRef.velocity)

				a.Step(wa, grad)
				aRef.t++
				c := aRef.consts()
				aRef.stepFrom(0, waRef, grad, &c)
				aRef.lr *= aRef.LRDecay
				requireSameBits(t, "Adam w", n, step, wa, waRef)
				requireSameBits(t, "Adam m", n, step, a.m, aRef.m)
				requireSameBits(t, "Adam v", n, step, a.v, aRef.v)
			}
		}
	}
}
