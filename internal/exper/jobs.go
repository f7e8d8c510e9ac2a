package exper

import (
	"fmt"
	"strings"
)

// fig13Decades is the server-lr range grid of the Appendix C experiment,
// shared by the Figure13 driver and its dependency declaration.
var fig13Decades = []int{1, 2, 3, 4}

// depsAllBanks declares the four dataset banks (the common case: most
// drivers sweep every dataset).
func depsAllBanks(Config) Deps { return Deps{Banks: DatasetNames} }

// AllJobs returns every figure/table driver as a declared-dependency job,
// in presentation order. The Scheduler uses the declarations to build each
// bank exactly once and to start drivers the moment their banks are ready.
func AllJobs() []Job {
	return []Job{
		{ID: "table1", Run: TableDatasets,
			Deps: func(Config) Deps { return Deps{Populations: DatasetNames} }},
		{ID: "figure1", Run: Figure1,
			// CIFAR10 methods plus the FEMNIST-proxy baseline.
			Deps: func(Config) Deps { return Deps{Banks: []string{"cifar10", "femnist"}} }},
		{ID: "figure3", Run: Figure3, Deps: depsAllBanks},
		{ID: "figure4", Run: Figure4, Deps: depsAllBanks},
		{ID: "figure5", Run: Figure5, Deps: depsAllBanks},
		{ID: "figure6", Run: Figure6, Deps: depsAllBanks},
		{ID: "figure7", Run: Figure7, Deps: depsAllBanks},
		{ID: "figure8", Run: Figure8, Deps: depsAllBanks},
		{ID: "figure9", Run: Figure9, Deps: depsAllBanks},
		{ID: "figure10", Run: Figure10, Deps: depsAllBanks},
		{ID: "figure11", Run: Figure11, Deps: depsAllBanks},
		{ID: "figure12", Run: Figure12, Deps: depsAllBanks},
		{ID: "figure13", Run: Figure13,
			Deps: func(cfg Config) Deps {
				var d Deps
				for _, name := range cfg.Fig13Datasets {
					for _, dec := range fig13Decades {
						d.DecadeBanks = append(d.DecadeBanks, DecadeDep{Dataset: name, Decades: dec})
					}
				}
				return d
			}},
		{ID: "figure14", Run: Figure14, Deps: depsAllBanks},
		{ID: "figure15", Run: Figure15, Deps: depsAllBanks},
		{ID: "figure16", Run: Figure16, Deps: depsAllBanks},
	}
}

// JobsByID resolves ids against the registry, in the given order. Ids are
// trimmed; an empty id is skipped and a repeated one keeps its first
// position, so "-only figure3," and "-only figure3,figure3" both run
// figure3 once.
func JobsByID(ids []string) ([]Job, error) {
	byID := map[string]Job{}
	for _, j := range AllJobs() {
		byID[j.ID] = j
	}
	out := make([]Job, 0, len(ids))
	seen := map[string]bool{"": true}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if seen[id] {
			continue
		}
		seen[id] = true
		j, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("exper: unknown experiment %q", id)
		}
		out = append(out, j)
	}
	return out, nil
}

// FigureOrder lists driver ids in presentation order.
func FigureOrder() []string {
	jobs := AllJobs()
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}
