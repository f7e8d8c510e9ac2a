// Package opt implements the optimizers of the study: client-side SGD with
// momentum and weight decay (ClientOPT in Algorithm 2 of the paper), and the
// server-side Adam applied to pseudo-gradients, i.e. FedAdam (Reddi et al.,
// 2020 — ServerOPT). Both operate on flat weight vectors produced by
// nn.Network.FlattenParams, which is also the representation exchanged
// between server and clients in the federated simulation.
package opt

import (
	"fmt"
	"math"

	"noisyeval/internal/tensor"
)

// SGD is stochastic gradient descent with heavy-ball momentum, decoupled
// weight decay, and optional gradient-norm clipping. The zero value is not
// usable; construct with NewSGD.
type SGD struct {
	LR          float64 // learning rate
	Momentum    float64 // heavy-ball coefficient in [0, 1)
	WeightDecay float64 // L2 coefficient applied to weights each step
	ClipNorm    float64 // if > 0, clip gradient to this L2 norm before the step

	velocity tensor.Vec
}

// NewSGD returns an SGD optimizer for a model with dim weights.
func NewSGD(dim int, lr, momentum, weightDecay float64) *SGD {
	if lr < 0 {
		panic(fmt.Sprintf("opt: negative SGD learning rate %g", lr))
	}
	if momentum < 0 || momentum >= 1 {
		panic(fmt.Sprintf("opt: SGD momentum %g outside [0, 1)", momentum))
	}
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: tensor.NewVec(dim)}
}

// Step applies one update: w <- w - lr * (v_t), where
// v_t = momentum*v_{t-1} + grad + weightDecay*w. grad is not modified unless
// clipping rescales it in place.
func (s *SGD) Step(w, grad tensor.Vec) {
	if len(w) != len(s.velocity) || len(grad) != len(s.velocity) {
		panic(fmt.Sprintf("opt: SGD dim mismatch w=%d grad=%d state=%d", len(w), len(grad), len(s.velocity)))
	}
	if s.ClipNorm > 0 {
		if n := grad.Norm2(); n > s.ClipNorm {
			grad.Scale(s.ClipNorm / n)
		}
	}
	// The whole 4-element vectors go through the AVX2 kernel where there is
	// one; the rest through the loop below. Both perform the same roundings
	// in the same order (this step is on the bit-compatibility path of
	// recorded banks; TestElementwiseMatchGeneric).
	s.stepFrom(tensor.SGDStepLanes(w, grad, s.velocity, s.LR, s.Momentum, s.WeightDecay), w, grad)
}

// stepFrom is the update loop over elements from..len(w).
func (s *SGD) stepFrom(from int, w, grad tensor.Vec) {
	// Slice-length hints let the compiler drop the per-element bounds
	// checks.
	grad = grad[:len(w)]
	vel := s.velocity[:len(w)]
	for i := from; i < len(w); i++ {
		g := grad[i] + s.WeightDecay*w[i]
		vel[i] = s.Momentum*vel[i] + g
		w[i] -= s.LR * vel[i]
	}
}

// Reset clears the momentum state (used when a client starts a fresh local
// solve from the server weights, as in FedAvg/FedAdam local training).
func (s *SGD) Reset() { s.velocity.Zero() }

// Adam is the Adam optimizer. When driven with pseudo-gradients
// Δ = w_server - w_avg_clients it implements FedAdam's ServerOPT.
type Adam struct {
	LR      float64 // server learning rate η
	Beta1   float64 // 1st-moment decay β1
	Beta2   float64 // 2nd-moment decay β2
	Eps     float64 // adaptivity constant τ
	LRDecay float64 // multiplicative per-step lr decay γ (1 = none)

	m, v tensor.Vec
	t    int
	lr   float64 // current decayed lr
}

// NewAdam returns an Adam optimizer for dim weights. The paper's search
// space draws β1 ∈ [0, 0.9], β2 ∈ [0, 0.999] and fixes γ = 0.9999.
func NewAdam(dim int, lr, beta1, beta2, eps, lrDecay float64) *Adam {
	if lr < 0 {
		panic(fmt.Sprintf("opt: negative Adam learning rate %g", lr))
	}
	if beta1 < 0 || beta1 >= 1 || beta2 < 0 || beta2 >= 1 {
		panic(fmt.Sprintf("opt: Adam betas (%g, %g) outside [0, 1)", beta1, beta2))
	}
	if eps <= 0 {
		eps = 1e-8
	}
	if lrDecay <= 0 {
		lrDecay = 1
	}
	return &Adam{
		LR: lr, Beta1: beta1, Beta2: beta2, Eps: eps, LRDecay: lrDecay,
		m: tensor.NewVec(dim), v: tensor.NewVec(dim), lr: lr,
	}
}

// Step applies one bias-corrected Adam update to w given grad.
func (a *Adam) Step(w, grad tensor.Vec) {
	if len(w) != len(a.m) || len(grad) != len(a.m) {
		panic(fmt.Sprintf("opt: Adam dim mismatch w=%d grad=%d state=%d", len(w), len(grad), len(a.m)))
	}
	a.t++
	c := a.consts()
	a.stepFrom(tensor.AdamStepLanes(w, grad, a.m, a.v, &c), w, grad, &c)
	a.lr *= a.LRDecay
}

// consts returns the loop-invariant values of step a.t. They travel by
// value and sit on Step's stack, where the AVX2 kernel reads them: no
// allocation per step.
func (a *Adam) consts() tensor.AdamConsts {
	return tensor.AdamConsts{
		Beta1: a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		Bias1: 1 - math.Pow(a.Beta1, float64(a.t)),
		Bias2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR:    a.lr, Eps: a.Eps,
	}
}

// stepFrom is the update loop over elements from..len(w). The kernel keeps
// its grouping: (1−β2)·g·g multiplies left to right, lr·m̂ is formed before
// the division.
func (a *Adam) stepFrom(from int, w, grad tensor.Vec, c *tensor.AdamConsts) {
	for i := from; i < len(w); i++ {
		g := grad[i]
		a.m[i] = c.Beta1*a.m[i] + c.OneMinusBeta1*g
		a.v[i] = c.Beta2*a.v[i] + c.OneMinusBeta2*g*g
		mhat := a.m[i] / c.Bias1
		vhat := a.v[i] / c.Bias2
		w[i] -= c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
	}
}

// StepCount returns the number of updates applied.
func (a *Adam) StepCount() int { return a.t }

// CurrentLR returns the decayed learning rate that the next step will use.
func (a *Adam) CurrentLR() float64 { return a.lr }

// Reset clears moments, the step counter, and the decayed learning rate.
func (a *Adam) Reset() {
	a.m.Zero()
	a.v.Zero()
	a.t = 0
	a.lr = a.LR
}
