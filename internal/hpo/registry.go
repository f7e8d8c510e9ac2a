package hpo

import (
	"fmt"
	"sort"
	"strings"
)

// methodEntry is one registered tuning method: a constructor returning a
// fresh zero-configured value plus the listing metadata GET /v1/methods
// serves (display name, aliases, description, settings hints).
type methodEntry struct {
	ctor        func() Method
	aliases     []string
	description string
	// settings maps knob names (lower-case, dotted for nested Settings
	// fields) to one-line hints about how the method consumes them.
	settings map[string]string
}

// methodRegistry maps each canonical method name (lower-case) to its entry.
// cmd/fedtune and the noisyevald server (both /v1/runs and /v1/sessions)
// share this table, so a method registered here is immediately reachable
// from every entry point.
var methodRegistry = map[string]methodEntry{
	"rs": {
		ctor:        func() Method { return RandomSearch{} },
		aliases:     []string{"random"},
		description: "Random search: K iid configurations at full fidelity, best by observed error (Algorithms 1-2).",
		settings: map[string]string{
			"budget.k":       "configurations sampled (paper: 16)",
			"budget.per_cfg": "training rounds per configuration (paper: 405)",
			"epsilon":        "per-release Laplace privacy budget (0/inf = non-private)",
		},
	},
	"grid": {
		ctor:        func() Method { return GridSearch{} },
		description: "The first K pool members in index order (an iid pool: random search without replacement), full fidelity, budget-truncated.",
		settings: map[string]string{
			"budget.k": "maximum pool members evaluated",
		},
	},
	"tpe": {
		ctor:        func() Method { return TPE{} },
		description: "Tree-structured Parzen estimator (Bergstra et al., 2011) over noisy releases.",
		settings: map[string]string{
			"budget.k": "configurations proposed",
			"epsilon":  "per-release Laplace privacy budget",
		},
	},
	"sha": {
		ctor:        func() Method { return SuccessiveHalving{} },
		description: "Successive halving (Li et al., 2017): one bracket, eliminate by noisy rung scores.",
		settings: map[string]string{
			"eta":     "elimination factor between rungs (paper: 3)",
			"epsilon": "one-shot top-k privacy budget across rungs",
		},
	},
	"hb": {
		ctor:        func() Method { return Hyperband{} },
		aliases:     []string{"hyperband"},
		description: "Hyperband: SHA brackets sweeping the exploration/exploitation trade-off.",
		settings: map[string]string{
			"eta":      "elimination factor (paper: 3)",
			"brackets": "bracket count (paper: 5)",
			"epsilon":  "one-shot top-k privacy budget across all rungs",
		},
	},
	"bohb": {
		ctor:        func() Method { return BOHB{} },
		description: "BOHB (Falkner et al., 2018): Hyperband with TPE-modelled bracket proposals.",
		settings: map[string]string{
			"eta":      "elimination factor",
			"brackets": "bracket count",
			"epsilon":  "one-shot top-k privacy budget",
		},
	},
	"reeval": {
		ctor:        func() Method { return ResampledRS{} },
		description: "Re-evaluation-averaged random search: each candidate scored by the mean of repeated noisy evaluations.",
		settings: map[string]string{
			"budget.k": "configurations sampled (evaluation repeats share it)",
			"epsilon":  "privacy budget split across repeats",
		},
	},
	"noisybo": {
		ctor:        func() Method { return NoisyBO{} },
		description: "Noise-aware Bayesian optimization over the bank pool with an explicit observation-noise model.",
		settings: map[string]string{
			"budget.k": "configurations proposed",
			"epsilon":  "per-release Laplace privacy budget",
		},
	},
	"fedpop": {
		ctor:        func() Method { return FedPop{} },
		description: "FedPop population-based tuning (Chen et al., 2023): evolve a population along the fidelity ladder, replacing noisy losers with perturbed survivors.",
		settings: map[string]string{
			"eta":     "fidelity ladder growth factor between generations",
			"epsilon": "one-shot top-k privacy budget across generations",
		},
	},
}

// methodAliases maps each non-canonical spelling (excluded from Methods())
// to its canonical registry name; built from the registry entries.
var methodAliases = buildAliases()

func buildAliases() map[string]string {
	out := map[string]string{}
	for name, e := range methodRegistry {
		for _, a := range e.aliases {
			out[a] = name
		}
	}
	return out
}

// Methods returns the canonical registry names, sorted, for listings and
// error messages ("bohb", "fedpop", "grid", "hb", "noisybo", "reeval", "rs",
// "sha", "tpe").
func Methods() []string {
	out := make([]string, 0, len(methodRegistry))
	for name := range methodRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MethodInfo describes one registered method for API listings
// (GET /v1/methods): canonical name, the method's display name, accepted
// aliases, and per-settings hints.
type MethodInfo struct {
	Name        string            `json:"name"`
	Display     string            `json:"display"`
	Aliases     []string          `json:"aliases,omitempty"`
	Description string            `json:"description"`
	Settings    map[string]string `json:"settings,omitempty"`
}

// MethodInfos returns the full method listing, sorted by canonical name.
func MethodInfos() []MethodInfo {
	out := make([]MethodInfo, 0, len(methodRegistry))
	for name, e := range methodRegistry {
		aliases := append([]string(nil), e.aliases...)
		sort.Strings(aliases)
		out = append(out, MethodInfo{
			Name:        name,
			Display:     e.ctor().Name(),
			Aliases:     aliases,
			Description: e.description,
			Settings:    e.settings,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MethodByName resolves a method name (case-insensitive; aliases such as
// "random" and "hyperband" accepted) to a method value with default
// configuration. Unknown names produce an error naming the valid choices.
func MethodByName(name string) (Method, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := methodAliases[n]; ok {
		n = canon
	}
	if e, ok := methodRegistry[n]; ok {
		return e.ctor(), nil
	}
	return nil, fmt.Errorf("hpo: unknown method %q (valid: %s)", name, strings.Join(Methods(), ", "))
}

// CanonicalMethodName resolves a method name or alias to its canonical
// registry spelling (used by content-addressed run keys, where "hb" and
// "hyperband" must hash identically). Unknown names return an error naming
// the valid choices.
func CanonicalMethodName(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := methodAliases[n]; ok {
		n = canon
	}
	if _, ok := methodRegistry[n]; !ok {
		return "", fmt.Errorf("hpo: unknown method %q (valid: %s)", name, strings.Join(Methods(), ", "))
	}
	return n, nil
}
