package exper

import (
	"fmt"
	"slices"

	"noisyeval/internal/data"
	"noisyeval/internal/plot"
)

// TableDatasets reproduces Tables 1 and 2: the per-dataset client counts and
// example statistics of the generated populations (at the suite's scale),
// side by side with the paper's full-scale numbers.
func TableDatasets(s *Suite) Result {
	res := Result{ID: "table1", Title: "Tables 1/2: dataset statistics (generated vs paper full-scale)"}
	res.CSVHeader = []string{
		"dataset", "task",
		"train_clients", "eval_clients", "mean_examples", "min_examples", "max_examples", "total_examples",
		"paper_train_clients", "paper_eval_clients", "paper_mean", "paper_min", "paper_max",
	}
	paper := map[string][5]int{
		"cifar10":       {400, 100, 100, 83, 131},
		"femnist":       {3507, 360, 203, 19, 393},
		"stackoverflow": {10815, 3678, 391, 1, 194167},
		"reddit":        {40000, 9928, 19, 1, 14440},
	}
	tbl := plot.Table{
		Title: res.Title,
		Columns: []string{
			"dataset", "task", "train", "eval", "mean", "min", "max", "total",
			"paper(train/eval/mean/min/max)",
		},
	}
	for _, name := range DatasetNames {
		pop := s.Population(name)
		all := append(append([]*data.Client{}, pop.Train...), pop.Val...)
		st := data.PoolStats(all)
		p := paper[name]
		// The generated statistics are the same eight cells in both outputs;
		// the paper's five go in one table cell and five CSV cells.
		cells := []string{
			name, pop.Spec.Kind.String(),
			fmt.Sprintf("%d", len(pop.Train)), fmt.Sprintf("%d", len(pop.Val)),
			fmt.Sprintf("%.0f", st.MeanExamples), fmt.Sprintf("%d", st.MinExamples),
			fmt.Sprintf("%d", st.MaxExamples), fmt.Sprintf("%d", st.TotalExamples),
		}
		tbl.Rows = append(tbl.Rows, append(slices.Clone(cells),
			fmt.Sprintf("%d/%d/%d/%d/%d", p[0], p[1], p[2], p[3], p[4])))
		res.CSVRows = append(res.CSVRows, append(cells,
			fmt.Sprintf("%d", p[0]), fmt.Sprintf("%d", p[1]), fmt.Sprintf("%d", p[2]),
			fmt.Sprintf("%d", p[3]), fmt.Sprintf("%d", p[4])))
	}
	res.Lines = tbl.Render()
	return res
}
