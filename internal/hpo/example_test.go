package hpo_test

import (
	"fmt"

	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// ExampleSpace_Sample draws a configuration from the paper's Appendix-B
// search space.
func ExampleSpace_Sample() {
	space := hpo.DefaultSpace()
	cfg := space.Sample(rng.New(7))
	fmt.Println(space.Contains(cfg))
	fmt.Println(cfg.BatchSize == 32 || cfg.BatchSize == 64 || cfg.BatchSize == 128)
	// Output:
	// true
	// true
}

// ExampleRungRounds shows the paper's SHA fidelity ladder.
func ExampleRungRounds() {
	fmt.Println(hpo.RungRounds(405, 3, 5))
	// Output:
	// [5 15 45 135 405]
}

// ExampleHistory_RecommendAt demonstrates budget-indexed recommendations:
// a history records pool members by index and resolves them on reading.
func ExampleHistory_RecommendAt() {
	pool := hpo.DefaultSpace().SampleN(2, rng.New(7))
	h := hpo.NewHistory("RS", pool)
	h.Add(0, 405, 0.40, 0.41, 405) // pool member, rounds, observed, true, cumulative rounds
	h.Add(1, 405, 0.35, 0.37, 810)
	early, _ := h.RecommendAt(405)
	late, _ := h.RecommendAt(810)
	fmt.Printf("%.2f %.2f %v\n", early.Observed, late.Observed, late.Config == pool[1])
	// Output:
	// 0.40 0.35 true
}
