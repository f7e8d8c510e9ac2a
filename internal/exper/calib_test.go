package exper

import (
	"testing"

	"noisyeval/internal/stats"
)

// TestCalibrationReport logs the pool error distribution per dataset at
// quick scale (run with -v); used to calibrate task difficulty against the
// paper's reported ranges.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report")
	}
	s := quickSuite(t)
	for _, name := range DatasetNames {
		errs, _ := fullErrors(s.Bank(name))
		sum := stats.Summarize(errs)
		t.Logf("%-14s best %5.1f%%  q1 %5.1f%%  median %5.1f%%  q3 %5.1f%%  worst %5.1f%%",
			name, stats.Min(errs)*100, sum.Q1*100, sum.Median*100, sum.Q3*100, stats.Max(errs)*100)
	}
}
