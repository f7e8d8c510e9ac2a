package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one harness span: a call from bench/ into a layer. Spans of one op
// share Op; Parent is the index of the causing span in the recorder (-1 for
// the op's root span).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs execute the same op code without it. One caller
// drives every op, so no locking.
type recorder struct {
	epoch time.Time
	block int // ops per traced/untraced block
	all   []span
	stack []int // open spans, innermost last
}

// newRecorder traces every second block of block ops. The noise families
// cycle with period four and differ in cost, so a block is four ops wherever
// the run is long enough: both halves then see every family equally.
func newRecorder(ops int) *recorder {
	r := &recorder{epoch: time.Now(), block: 1}
	if ops >= 8 {
		r.block = len(families)
	}
	return r
}

// spans reports whether op i is in a traced block.
func (r *recorder) spans(i int) bool { return r != nil && (i/r.block)%2 == 1 }

// begin opens a span under the innermost open one.
func (r *recorder) begin(op int, name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.stack = append(r.stack, len(r.all))
	r.all = append(r.all, span{Name: name, Op: op, Parent: parent, StartNs: int64(time.Since(r.epoch))})
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.all[i].EndNs = int64(time.Since(r.epoch))
}

// durations returns the duration of every closed span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.all {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// layerTime is one row of the ledger: the median per-op time of the op
// replayed at one layer, and the layer's self time.
type layerTime struct {
	Layer  string  `json:"layer"`
	CallMs float64 `json:"call_ms"`
	SelfMs float64 `json:"self_ms"`
}

// ledger fills in self times and returns the share of the end-to-end op time
// the layers leave unaccounted. floor rows are costs measured on their own
// (self = call); chain rows are the op replayed one layer down at a time, top
// down, and a chain layer's self time is its call minus the next layer's
// call on the same inputs. Nothing above the chain is derived from opMs, so
// what the harness did not measure stays visible.
func ledger(opMs float64, floor, chain []layerTime) ([]layerTime, float64) {
	sum := 0.0
	for i := range floor {
		floor[i].SelfMs = floor[i].CallMs
		sum += floor[i].SelfMs
	}
	for i := range chain {
		self := chain[i].CallMs
		if i+1 < len(chain) {
			self -= chain[i+1].CallMs
		}
		chain[i].SelfMs = max(self, 0)
		sum += chain[i].SelfMs
	}
	return append(floor, chain...), 1 - sum/opMs
}

// traceFile is what a traced run writes to bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Ops      int               `json:"ops"`
	Layers   []layerTime       `json:"layers"`
	Metrics  map[string]metric `json:"metrics"`
	Spans    []span            `json:"spans"`
}

func writeTraceFile(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tf.Workload+".trace.json"), raw, 0o644)
}
