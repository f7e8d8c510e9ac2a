package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: which metrics
// are gated, in which direction, by which bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so compare
// reads spreads the way the benchmark driver does. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one set of runs, grouped by workload.
type side map[string][]record

// loadSide reads every file matching the comma-separated globs and keeps
// each line that is a run record.
func loadSide(globs string) (side, error) {
	out := side{}
	for _, g := range strings.Split(globs, ",") {
		paths, err := filepath.Glob(strings.TrimSpace(g))
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			sc := bufio.NewScanner(f)
			sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
			for sc.Scan() {
				var rec record
				if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Workload != "" {
					out[rec.Workload] = append(out[rec.Workload], rec)
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no run records match %q", globs)
	}
	return out, nil
}

// values collects one metric over the untraced (trace 0) or traced runs.
func values(recs []record, name string, trace int) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Trace == trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// failedShare is failed ops over attempted ops across the runs.
func failedShare(recs []record) float64 {
	attempted, failed := 0, 0
	for _, r := range recs {
		attempted += r.OpsAttempted
		failed += r.OpsFailed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// opCounts is the set of ops_attempted values among the runs at one trace
// level, rendered for comparison: both sides must have done identical work.
func opCounts(recs []record, trace int) string {
	set := map[int]bool{}
	for _, r := range recs {
		if r.Trace == trace {
			set[r.OpsAttempted] = true
		}
	}
	counts := make([]int, 0, len(set))
	for c := range set {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	return fmt.Sprint(counts)
}

// refTolerance is how far the reference kernel's median may differ between
// the two sides before the machine, not the code, is taken to have changed.
const refTolerance = 0.10

// refMedian is the median reference-kernel time of the untraced runs.
func refMedian(recs []record) float64 {
	var xs []float64
	for _, r := range recs {
		if r.Trace == 0 && r.RefMs > 0 {
			xs = append(xs, r.RefMs)
		}
	}
	return median(xs)
}

// digestsBySeed maps seed → the set of results digests its untraced runs
// printed; one seed must always give one digest.
func digestsBySeed(recs []record, into map[uint64]map[string]bool) {
	for _, r := range recs {
		if r.Trace != 0 {
			continue
		}
		if into[r.Seed] == nil {
			into[r.Seed] = map[string]bool{}
		}
		into[r.Seed][r.ResultsDigest] = true
	}
}

// compareMain implements `bench compare`: per workload × end-to-end metric
// the medians, quartiles and ratio with its base, judged against the bounds
// BENCHMARK.json fixes. It returns 1 on a regression, a higher failed share,
// a digest that differs between runs of one seed, a workload only one side
// ran, or op counts that differ between the sides.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseGlob := fs.String("base", "", "comma-separated globs of the base runs' output files")
	newGlob := fs.String("new", "", "comma-separated globs of the new runs' output files")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseGlob == "" || *newGlob == "" {
		fmt.Fprintln(os.Stderr, "compare: -base and -new are required")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	base, err := loadSide(*baseGlob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	fresh, err := loadSide(*newGlob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}

	bad := false
	for _, w := range workloadNames {
		b, n := base[w], fresh[w]
		if len(b) == 0 && len(n) == 0 {
			continue
		}
		fmt.Fprintf(out, "%s  (base %d runs, new %d runs)\n", w, len(b), len(n))
		if len(b) == 0 || len(n) == 0 {
			// A run that could not finish prints no record.
			fmt.Fprintln(out, "  RUNS ON ONE SIDE ONLY")
			bad = true
			continue
		}
		for trace := 0; trace <= 1; trace++ {
			if bc, nc := opCounts(b, trace), opCounts(n, trace); bc != nc && bc != "[]" && nc != "[]" {
				fmt.Fprintf(out, "  OP COUNTS DIFFER (trace %d): base %s, new %s\n", trace, bc, nc)
				bad = true
			}
		}
		// The reference kernel calls no repository code: if it moved, the
		// machine did, and no time is then called unchanged or improved.
		bref, nref := refMedian(b), refMedian(n)
		machineMoved := math.Abs(nref/bref-1) > refTolerance
		if !math.IsNaN(bref) && !math.IsNaN(nref) {
			note := "steady"
			if machineMoved {
				note = fmt.Sprintf("MOVED by more than %.2f: the machine changed, rerun both sides", refTolerance)
			}
			fmt.Fprintf(out, "  reference kernel: base %.4g ms, new %.4g ms, %.4f of base  %s\n", bref, nref, nref/bref, note)
		}
		fmt.Fprintf(out, "  %-16s %-5s %12s %25s %12s %25s %16s %6s  %s\n",
			"metric", "unit", "base median", "base q1..q3", "new median", "new q1..q3", "new/base", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			bv, nv := values(b, m.Name, 0), values(n, m.Name, 0)
			if len(bv) < 2 || len(nv) < 2 {
				fmt.Fprintf(out, "  %-16s needs two runs a side (base %d, new %d)\n", m.Name, len(bv), len(nv))
				continue
			}
			bq1, bmed, bq3 := quartiles(bv)
			nq1, nmed, nq3 := quartiles(nv)
			worse := (nmed - bmed) / bmed
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max((bq3-bq1)/bmed, (nq3-nq1)/nmed)
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict, bad = "REGRESSED", true
			case spread > m.Bound:
				verdict = "unresolved (spread " + fmt.Sprintf("%.3f", spread) + " > bound)"
			case machineMoved && m.Unit != "kB":
				verdict = "unresolved (reference kernel moved)"
			case -worse > m.Bound && -worse*bmed > bq3-bq1:
				verdict = "improved"
			}
			fmt.Fprintf(out, "  %-16s %-5s %12.5g %12.5g..%-11.5g %12.5g %12.5g..%-11.5g %7.4f of %-6.5g %6.2f  %s\n",
				m.Name, m.Unit, bmed, bq1, bq3, nmed, nq1, nq3, nmed/bmed, bmed, m.Bound, verdict)
		}
		bs, ns := failedShare(b), failedShare(n)
		line := "ok"
		if ns > bs {
			line, bad = "HIGHER FAILED SHARE", true
		}
		fmt.Fprintf(out, "  failed share: base %.4g, new %.4g  %s\n", bs, ns, line)

		seeds := map[uint64]map[string]bool{}
		digestsBySeed(b, seeds)
		digestsBySeed(n, seeds)
		line = "identical across runs of each seed"
		for seed, ds := range seeds {
			if len(ds) > 1 {
				line, bad = fmt.Sprintf("DIFFER between runs of seed %d", seed), true
			}
		}
		fmt.Fprintf(out, "  results digests: %s\n", line)

		// Per-layer metrics have no bound: medians and ratio only.
		names := map[string]bool{}
		for _, r := range append(append([]record(nil), b...), n...) {
			if r.Trace == 1 {
				for name := range r.Metrics {
					names[name] = true
				}
			}
		}
		sorted := make([]string, 0, len(names))
		for name := range names {
			sorted = append(sorted, name)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			bv, nv := values(b, name, 1), values(n, name, 1)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			bmed, nmed := median(bv), median(nv)
			fmt.Fprintf(out, "  layer %-42s %12.5g -> %-12.5g %7.4f of %.5g\n", name, bmed, nmed, nmed/bmed, bmed)
		}
	}
	if bad {
		return 1
	}
	return 0
}
