// Command bench is the repository's benchmark: four long workloads over the
// real stack, end-to-end metrics from an untraced run, per-layer metrics from
// a traced one, correctness checks in the same command. See README.md.
//
//	bash bench/run.sh -workload serve_mix -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -workload serve_mix -seed 1 -seconds 12 -trace 1
//	bash bench/run.sh compare -base 'a/*.json' -new 'b/*.json'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full account of one run, printed as the second-to-last line
// of standard output; `compare` reads these.
type record struct {
	Workload      string `json:"workload"`
	Seed          uint64 `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         int    `json:"trace"`
	OpsAttempted  int    `json:"ops_attempted"`
	OpsFailed     int    `json:"ops_failed"`
	ResultsDigest string `json:"results_digest"`
	// Gomaxprocs is what the run was measured on (measuredProcs) and
	// GomaxprocsDefault what the process started with.
	Gomaxprocs        int    `json:"gomaxprocs"`
	GomaxprocsDefault int    `json:"gomaxprocs_default"`
	NumCPU            int    `json:"num_cpu"`
	Gogc              string `json:"gogc"`
	Tmpfs             int    `json:"harness.tmpfs"`
	// RefMs is the reference kernel's time (reference.go), the mean of a
	// probe before and a probe after the timed region, and RefDrift how far
	// the second sat from the first: diagnostics of the machine, not of the
	// program. compare reads them.
	RefMs    float64           `json:"harness.ref_ms"`
	RefDrift float64           `json:"harness.ref_drift_frac"`
	Metrics  map[string]metric `json:"metrics"`
	Errors   []string          `json:"errors,omitempty"`
}

// verdict is the last line of standard output, the form the benchmark
// driver reads.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline ends a timed region that has run away; every op not finished
// by then counts as failed. With set-up it keeps a run under the driver's
// 180-second limit.
const runDeadline = 100 * time.Second

// measuredProcs is the GOMAXPROCS every gated number is measured on. On the
// reference box the process's second hardware thread is worth anything
// between 1.0× and 2.2× from one minute to the next: with both in use the
// spread of serve_mix and tune_heavy over identical runs was 0.13–0.24,
// against 0.05–0.10 on one P (README.md, "One P"). The traced run drives its
// slice a second time on the process's default GOMAXPROCS, so the choices
// the program makes from its P count keep a measured side each.
const measuredProcs = 1

// setupRepeats is how many complete set-ups an untraced run performs;
// setup_s is their median.
const setupRepeats = 3

// traceDir is where a traced run writes <workload>.trace.json, relative to
// the checkout root the command runs from.
var traceDir = filepath.Join("bench", "out")

// runConfig is one run. The command sets workload, seed, seconds and trace;
// the rest are for the tests.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	n        int        // op count; 0 = opCount(workload, seconds), the frozen count
	setups   int        // complete set-ups; 0 = setupRepeats
	outDir   string     // trace directory; "" = traceDir
	sizes    probeSizes // the traced run's probe sizes; zero = fullSizes
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve_mix, tune_heavy, figures_warm or cold_build")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&cfg.seconds, "seconds", frozenSeconds, "length of the timed region the op count is sized for")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics; 0 = untraced run reporting the end-to-end metrics")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, and there are no positional arguments")
		os.Exit(2)
	}

	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "bench: failed op:", e)
	}
}

// emit prints the record and then, as the last line, the driver's verdict.
// A value JSON cannot carry (NaN from an empty sample) is an error, not a
// silent blank.
func emit(w io.Writer, rec record) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(verdict{Correct: rec.OpsFailed == 0, Attempted: rec.OpsAttempted, Failed: rec.OpsFailed, Metrics: rec.Metrics})
}

// run executes one benchmark run: the untraced measurement, or the traced
// slice plus the layer probes.
func run(cfg runConfig) (record, error) {
	defaultProcs := runtime.GOMAXPROCS(measuredProcs)
	defer runtime.GOMAXPROCS(defaultProcs)
	if cfg.n == 0 {
		cfg.n = opCount(cfg.workload, cfg.seconds)
	}
	if cfg.setups == 0 {
		cfg.setups = setupRepeats
	}
	if cfg.outDir == "" {
		cfg.outDir = traceDir
	}
	if cfg.sizes == (probeSizes{}) {
		cfg.sizes = fullSizes
	}
	// A traced run drives 2·max(1, n/10) ops, which exceeds n when n < 2.
	w, err := newWorkload(cfg.workload, cfg.seed, max(cfg.n, 2))
	if err != nil {
		return record{}, err
	}
	sc, err := newScratch()
	if err != nil {
		return record{}, err
	}
	defer sc.remove()

	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Gomaxprocs: measuredProcs, GomaxprocsDefault: defaultProcs, NumCPU: runtime.NumCPU(), Gogc: os.Getenv("GOGC"),
		Metrics: map[string]metric{},
	}
	if sc.tmpfs {
		rec.Tmpfs = 1
	}
	if cfg.trace {
		rec.Trace = 1
		err = runTraced(cfg, w, sc, &rec, defaultProcs)
	} else {
		_, err = measure(cfg, w, sc, &rec, nil)
	}
	return rec, err
}

// measurement is what one timed region yields beyond the record.
type measurement struct {
	latencies []float64 // per-op, nanoseconds
	requests  int       // HTTP requests the timed region sent
}

// measure performs the set-ups, the timed region, the graceful shutdown and
// the checks, and fills the end-to-end metrics into rec. An error means the
// harness itself could not run; failed ops are counted, not returned.
func measure(cfg runConfig, w workload, sc *scratch, rec *record, tr *recorder) (measurement, error) {
	var m measurement
	n := cfg.n
	warmOps := max(1, n/10)

	// Set-up, cfg.setups times over fresh directories; the last one stays up
	// for the timed region.
	var setups []time.Duration
	var dir string
	for r := 0; r < cfg.setups; r++ {
		if r > 0 {
			if err := w.close(); err != nil {
				return m, fmt.Errorf("tear down set-up %d: %w", r-1, err)
			}
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = sc.sub(fmt.Sprintf("setup-%d", r)); err != nil {
			return m, err
		}
		start := time.Now()
		if err := w.boot(dir, warmOps); err != nil {
			w.close()
			return m, fmt.Errorf("set-up %d: %w", r, err)
		}
		setups = append(setups, time.Since(start))
	}
	defer w.close()

	disk0, err := dirBytes(dir)
	if err != nil {
		return m, err
	}
	failed := map[int]error{}
	m.latencies = make([]float64, 0, n)
	ref0 := refProbe()
	req0, cpu0, start := w.requests(), cpuTime(), time.Now()
	for i := 0; i < n; i++ {
		opStart := time.Now()
		if opStart.Sub(start) > runDeadline {
			for j := i; j < n; j++ {
				failed[j] = fmt.Errorf("not finished within the %s run deadline", runDeadline)
			}
			break
		}
		// A traced measurement spans every second block of ops; the blocks
		// in between run bare and give the tracing overhead on the same
		// state.
		opTr := tr
		if !tr.spans(i) {
			opTr = nil
		}
		opTr.begin(i, "op")
		err := w.op(i, opTr)
		opTr.end()
		m.latencies = append(m.latencies, float64(time.Since(opStart)))
		if err != nil {
			failed[i] = err
		}
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	ref1 := refProbe()
	m.requests = w.requests() - req0

	if err := w.quiesce(); err != nil {
		return m, fmt.Errorf("graceful shutdown: %w", err)
	}
	disk1, err := dirBytes(dir)
	if err != nil {
		return m, err
	}
	for i, err := range w.verify(len(m.latencies)) {
		if _, dup := failed[i]; !dup {
			failed[i] = err
		}
	}

	rec.OpsAttempted = n
	rec.OpsFailed = len(failed)
	rec.ResultsDigest = w.digest()
	rec.Errors = failureLines(failed)
	rec.RefMs = ms(ref0+ref1) / 2
	rec.RefDrift = float64(ref1-ref0) / float64(ref0)
	done := float64(len(m.latencies))
	rec.Metrics["setup_s"] = metric{medianDur(setups).Seconds(), "s"}
	rec.Metrics["ops_per_s"] = metric{done / wall.Seconds(), "1/s"}
	rec.Metrics["op_p50_ms"] = metric{median(m.latencies) / 1e6, "ms"}
	rec.Metrics["cpu_ms_per_op"] = metric{ms(cpu) / done, "ms"}
	rec.Metrics["disk_kb_per_op"] = metric{float64(disk1-disk0) / 1000 / done, "kB"}
	return m, checkCatalogue(rec.Metrics, endToEnd)
}

// failureLines renders up to eight failures, lowest op first.
func failureLines(failed map[int]error) []string {
	ops := make([]int, 0, len(failed))
	for i := range failed {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	var out []string
	for _, i := range ops[:min(len(ops), 8)] {
		out = append(out, fmt.Sprintf("op %d: %v", i, failed[i]))
	}
	return out
}
