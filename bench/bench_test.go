package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestWorkloadsEndToEnd runs each workload through the same run() the
// command uses — set-up, timed ops with their per-op assertions, graceful
// shutdown, reference checks — at a handful of ops.
func TestWorkloadsEndToEnd(t *testing.T) {
	for name, n := range map[string]int{"serve_mix": 12, "tune_heavy": 2, "figures_warm": 1, "cold_build": 1} {
		t.Run(name, func(t *testing.T) {
			rec, err := run(runConfig{workload: name, seed: 7, seconds: frozenSeconds, n: n, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rec.OpsAttempted != n || rec.OpsFailed != 0 {
				t.Fatalf("attempted %d failed %d (want %d, 0): %v", rec.OpsAttempted, rec.OpsFailed, n, rec.Errors)
			}
			if len(rec.ResultsDigest) != 64 {
				t.Errorf("results digest %q is not a SHA-256", rec.ResultsDigest)
			}
			if rec.Gomaxprocs != measuredProcs || rec.GomaxprocsDefault != runtime.GOMAXPROCS(0) || !(rec.RefMs > 0) {
				t.Errorf("record says gomaxprocs %d of %d (want %d of %d), reference kernel %v ms",
					rec.Gomaxprocs, rec.GomaxprocsDefault, measuredProcs, runtime.GOMAXPROCS(0), rec.RefMs)
			}
			if err := checkCatalogue(rec.Metrics, endToEnd); err != nil {
				t.Error(err)
			}
			for _, e := range endToEnd {
				if m := rec.Metrics[e.name]; !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", e.name, m.Value)
				}
			}
		})
	}
}

// TestTracedRun drives the traced path — the spanned slice, the same slice on
// the default GOMAXPROCS, every layer probe at small sizes, the layer replay
// and the ledger — and requires the whole per-layer catalogue and the trace
// file. It builds seven banks; -short skips it.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven banks")
	}
	out := t.TempDir()
	rec, err := run(runConfig{workload: "serve_mix", seed: 7, seconds: frozenSeconds, n: 80, trace: true, outDir: out,
		sizes: probeSizes{registryFill: 60, mixVisits: 40, spanSample: 10, journalRecords: 200}})
	if err != nil {
		t.Fatal(err)
	}
	// Sixteen ops on one P and the same sixteen on the default GOMAXPROCS.
	if rec.Trace != 1 || rec.OpsAttempted != 32 || rec.OpsFailed != 0 {
		t.Fatalf("trace %d attempted %d failed %d (want 1, 32, 0): %v", rec.Trace, rec.OpsAttempted, rec.OpsFailed, rec.Errors)
	}
	if got := runtime.GOMAXPROCS(0); got != rec.GomaxprocsDefault {
		t.Errorf("run left GOMAXPROCS at %d, it started at %d", got, rec.GomaxprocsDefault)
	}
	if err := checkCatalogue(rec.Metrics, perLayer); err != nil {
		t.Error(err)
	}
	for name, want := range map[string]float64{"client.requests_per_run": 6, "hpo.evals_per_trial.rs": 16, "hpo.evals_per_trial.bohb": 190} {
		if got := rec.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want exactly %v", name, got, want)
		}
	}
	for _, name := range []string{"harness.allprocs_speedup", "core.train_range_speedup", "core.trials_per_s.rs", "serve.handler_list_us", "journal.replay_ms_per_10k", "serve.span_coverage"} {
		if got := rec.Metrics[name].Value; !(got > 0) {
			t.Errorf("%s = %v, want a positive value", name, got)
		}
	}
	raw, err := os.ReadFile(filepath.Join(out, "serve_mix.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Ops != 16 || len(tf.Layers) != 5 || len(tf.Spans) == 0 || len(tf.Metrics) != len(perLayer) {
		t.Errorf("trace file: %d ops, %d layers, %d spans, %d metrics", tf.Ops, len(tf.Layers), len(tf.Spans), len(tf.Metrics))
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := run(runConfig{workload: "nope", seed: 1, seconds: frozenSeconds}); err == nil {
		t.Fatal("unknown workload ran")
	}
}

// TestGeneratorsDependOnlyOnSeed: the same seed gives the same inputs,
// another seed gives others, and warm-up inputs are disjoint from timed ones.
func TestGeneratorsDependOnlyOnSeed(t *testing.T) {
	gen := func(seed uint64) []any {
		var out []any
		for i := 0; i < 40; i++ {
			out = append(out, serveMixRequest(seed, i), tuneHeavySession(seed, i), coldScale(seed, i))
			for _, m := range tuneMethods {
				out = append(out, tuneHeavyRequest(seed, i, m))
			}
			out = append(out, coldBuildRequest(seed, i, "reddit"))
		}
		return append(out, figScale(seed))
	}
	if !reflect.DeepEqual(gen(3), gen(3)) {
		t.Error("same seed generated different inputs")
	}
	a, b := gen(3), gen(4)
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d is the same under seeds 3 and 4: %+v", i, a[i])
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[serveMixRequest(3, i).Seed] = true
	}
	for i := 0; i < 1000; i++ {
		if s := serveMixRequest(3, warmBase+i).Seed; seen[s] || s == 0 {
			t.Fatalf("warm-up visit %d reuses timed seed %d", i, s)
		}
	}
	if coldScale(3, 0).Seed == coldScale(3, warmBase).Seed || coldScaleName(0) == coldScaleName(warmBase) {
		t.Error("warm-up cold scale collides with timed cold scale 0")
	}
	for i := 0; i < 4; i++ {
		if !reflect.DeepEqual(family(i), family(i+4)) || reflect.DeepEqual(family(i), family(i+1)) {
			t.Errorf("noise families do not cycle with period 4 at %d", i)
		}
	}
}

func TestServeMixRevisitStaysInHistory(t *testing.T) {
	recent := 0
	for i := 0; i < 5000; i++ {
		j := serveMixRevisit(i)
		if j < 0 || j > i {
			t.Fatalf("visit %d revisits %d", i, j)
		}
		if 2*j > i {
			recent++
		}
	}
	if recent < 2000 || recent > 3000 {
		t.Errorf("%d of 5000 revisits fall in the recent half, want about half", recent)
	}
}

func TestOpCountScalesWithSeconds(t *testing.T) {
	for _, w := range workloadNames {
		if got := opCount(w, frozenSeconds); got != frozenOps[w] {
			t.Errorf("opCount(%s, %d) = %d, want the frozen %d", w, frozenSeconds, got, frozenOps[w])
		}
		if opCount(w, 1) < 1 || opCount(w, 2*frozenSeconds) != 2*frozenOps[w] {
			t.Errorf("opCount(%s) does not scale: 1s → %d, %ds → %d", w, opCount(w, 1), 2*frozenSeconds, opCount(w, 2*frozenSeconds))
		}
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 99)) {
		t.Error("empty input should give NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v", got)
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("p50 of one value = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v", q1, q2, q3)
	}
}

func TestRecorderAndLedger(t *testing.T) {
	var none *recorder
	none.begin(0, "op") // a nil recorder is the untraced run
	none.end()
	if none.spans(1) {
		t.Error("nil recorder claims to trace")
	}

	r := newRecorder(16)
	for i := 0; i < 16; i++ {
		if want := i/4%2 == 1; r.spans(i) != want {
			t.Errorf("spans(%d) = %v", i, !want)
		}
	}
	r.begin(4, "op")
	r.begin(4, "client.submit")
	r.end()
	r.end()
	if len(r.all) != 2 || r.all[0].Parent != -1 || r.all[1].Parent != 0 || r.all[1].EndNs < r.all[1].StartNs {
		t.Errorf("spans %+v", r.all)
	}
	if len(r.durations("client.submit")) != 1 || len(r.durations("nope")) != 0 {
		t.Error("durations by name")
	}

	layers, un := ledger(10,
		[]layerTime{{Layer: "client", CallMs: 1}},
		[]layerTime{{Layer: "serve", CallMs: 6}, {Layer: "exper", CallMs: 4}, {Layer: "core", CallMs: 5}})
	want := []float64{1, 2, 0, 5} // a negative self time clamps to zero
	for i, l := range layers {
		if l.SelfMs != want[i] {
			t.Errorf("layer %s self %v, want %v", l.Layer, l.SelfMs, want[i])
		}
	}
	if math.Abs(un-0.2) > 1e-12 {
		t.Errorf("unaccounted %v, want 0.2", un)
	}
}

func TestReferenceKernel(t *testing.T) {
	var rs refSorter
	if a, b := refKernel(7, &rs), refKernel(7, &rs); a != b || a == refKernel(8, &rs) {
		t.Errorf("reference kernel is not a pure function of its seed: %v %v", a, b)
	}
	if n := testing.AllocsPerRun(10, func() { refKernel(7, &rs) }); n != 0 {
		t.Errorf("reference kernel allocates %v times a call; its time must not depend on the heap", n)
	}
	if refProbe() <= 0 {
		t.Error("reference probe measured no time")
	}
}

func TestDirBytes(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "a", "b"), 0o755)
	os.WriteFile(filepath.Join(dir, "a", "x"), make([]byte, 1000), 0o644)
	os.WriteFile(filepath.Join(dir, "a", "b", "y"), make([]byte, 234), 0o644)
	if got, err := dirBytes(dir); err != nil || got != 1234 {
		t.Errorf("dirBytes = %d, %v", got, err)
	}
}

// TestNoDoomedAPI fails if the harness references an identifier the ROADMAP
// schedules for deletion: later changes may not edit bench/, so the harness
// must keep compiling after they land.
func TestNoDoomedAPI(t *testing.T) {
	doomed := regexp.MustCompile(`\b(AskTellDriver|EvalStream|SequentialTrials|EncodeBank|DecodeBank|SaveBank|LoadBank|BatchEval|expvar|LogfSink)\b`)
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := doomed.FindString(line); m != "" {
				t.Errorf("%s:%d references %s, which the ROADMAP schedules for deletion", f, i+1, m)
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the program's
// own metric lists equal, name for name and unit for unit.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int                     `json:"run_seconds"`
		Workloads  []struct{ Name string } `json:"workloads"`
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != frozenSeconds {
		t.Errorf("run_seconds %d, op counts are frozen for %d", bf.RunSeconds, frozenSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	var e2e, layers []catalogueEntry
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, catalogueEntry{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, catalogueEntry{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program has %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the program's catalogue (%d vs %d entries)", len(layers), len(perLayer))
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	type runs struct {
		workload string
		opsPerS  []float64
		ops      int
		failed   int
		digest   string
		refMs    float64
	}
	write := func(name string, sets ...runs) string {
		var buf bytes.Buffer
		for _, rs := range sets {
			for _, v := range rs.opsPerS {
				rec := record{Workload: rs.workload, Seed: 1, OpsAttempted: rs.ops, OpsFailed: rs.failed, ResultsDigest: rs.digest, RefMs: rs.refMs,
					Metrics: map[string]metric{"ops_per_s": {v, "1/s"}, "op_p50_ms": {1000 / v, "ms"}}}
				json.NewEncoder(&buf).Encode(rec)
				fmt.Fprintln(&buf, `{"correct":true,"attempted":100,"failed":0,"metrics":{}}`)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)

	steady := []float64{100, 100, 101, 99, 98}
	mix := runs{"serve_mix", []float64{100, 101, 99, 100, 102}, 100, 0, "d1", 7}
	tune := runs{"tune_heavy", steady, 8, 0, "t1", 7}
	base := write("base.json", mix, tune)
	for _, tc := range []struct {
		name string
		sets []runs
		code int
		want string
	}{
		{"same", []runs{{"serve_mix", steady, 100, 0, "d1", 7.1}, tune}, 0, "unchanged"},
		{"slower", []runs{{"serve_mix", []float64{80, 81, 79, 80, 82}, 100, 0, "d1", 7}, tune}, 1, "REGRESSED"},
		{"faster", []runs{{"serve_mix", []float64{130, 131, 129, 130, 132}, 100, 0, "d1", 7}, tune}, 0, "improved"},
		{"noisy", []runs{{"serve_mix", []float64{100, 130, 75, 99, 112}, 100, 0, "d1", 7}, tune}, 0, "unresolved (spread"},
		{"other-machine", []runs{{"serve_mix", []float64{130, 131, 129, 130, 132}, 100, 0, "d1", 5.5}, tune}, 0, "unresolved (reference kernel moved)"},
		{"failing", []runs{{"serve_mix", steady, 100, 3, "d1", 7}, tune}, 1, "HIGHER FAILED SHARE"},
		{"wrong", []runs{{"serve_mix", steady, 100, 0, "d2", 7}, tune}, 1, "DIFFER"},
		// A workload that crashed on the new side printed no record.
		{"crashed", []runs{{"serve_mix", steady, 100, 0, "d1", 7}}, 1, "RUNS ON ONE SIDE ONLY"},
		{"other-work", []runs{{"serve_mix", steady, 50, 0, "d1", 7}, tune}, 1, "OP COUNTS DIFFER"},
	} {
		var out bytes.Buffer
		path := write(tc.name+".json", tc.sets...)
		code := compareMain([]string{"-base", base, "-new", path, "-benchmark", bench}, &out)
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
	if code := compareMain([]string{"-base", filepath.Join(dir, "none*"), "-new", base, "-benchmark", bench}, &bytes.Buffer{}); code != 2 {
		t.Errorf("missing base files: exit %d, want 2", code)
	}
}
