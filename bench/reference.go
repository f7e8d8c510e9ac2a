package main

import (
	"sort"
	"time"
)

// The sandbox this benchmark is sized on shares its host: for minutes at a
// time identical work runs 25–60 % slower (CPU time too), then recovers, while
// a dependent-chain ALU loop, a DRAM pointer chase, steal time and page-fault
// counts all stay flat. A small kernel shaped like the repository's own work —
// row sweeps with random gathers and a comparison sort — does track those
// phases, so it is timed on either side of every measured region and reported
// beside the wall-clock metrics as a diagnostic (harness.ref_ms and
// harness.ref_drift_frac; compare reads them). It scales nothing.
//
// The kernel lives in bench/, allocates nothing and touches no repository
// code, so no later change can move it.

// refMatrix is a fixed synthetic error tensor: 4 checkpoints × 64 configs ×
// 50 clients.
var refMatrix = func() []float64 {
	m := make([]float64, 4*64*50)
	x := uint64(88172645463325252)
	for i := range m {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[i] = float64(x%1000) / 1000
	}
	return m
}()

// refSorter orders config indices by score without allocating.
type refSorter struct {
	idx    [64]int
	scores [64]float64
	best   [64]float64
}

func (r *refSorter) Len() int           { return len(r.idx) }
func (r *refSorter) Less(a, b int) bool { return r.scores[r.idx[a]] < r.scores[r.idx[b]] }
func (r *refSorter) Swap(a, b int)      { r.idx[a], r.idx[b] = r.idx[b], r.idx[a] }

// refKernel is 24 bootstrap "trials": score 64 configs from three sampled
// clients plus a full row sweep, rank them, keep the top 16.
func refKernel(seed uint64, rs *refSorter) float64 {
	x := seed | 1
	total := 0.0
	for t := 0; t < 24; t++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ck := int(x % 4)
		for c := range rs.scores {
			row := refMatrix[(ck*64+c)*50 : (ck*64+c+1)*50]
			s := 0.0
			for k := 0; k < 3; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				s += row[x%50]
			}
			full := 0.0
			for _, v := range row {
				full += v
			}
			rs.scores[c] = s/3 + full*1e-9
		}
		for i := range rs.idx {
			rs.idx[i] = i
		}
		sort.Sort(rs)
		for _, i := range rs.idx[:16] {
			rs.best[i] = rs.scores[i]
		}
		total += rs.best[rs.idx[0]]
	}
	return total
}

var refSink float64

// refSample times 60 kernels on the calling goroutine, about 7 ms on the
// reference box.
func refSample() time.Duration {
	start := time.Now()
	var rs refSorter
	sum := 0.0
	for i := 0; i < 60; i++ {
		sum += refKernel(uint64(i+1), &rs)
	}
	refSink = sum
	return time.Since(start)
}

// refProbe is the median of three samples, after one that pays for cold
// caches.
func refProbe() time.Duration {
	refSample()
	return medianDur([]time.Duration{refSample(), refSample(), refSample()})
}
