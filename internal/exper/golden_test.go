package exper

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// figuresGolden pins every figure's bytes at Quick()/seed 1: one SHA-256 per
// job over ID, Title, CSVHeader, CSVRows and Lines (resultDigest). Recorded on
// the drivers as they stood before the cell runner existed; a driver that
// changes a number, a label or a stream position fails here by name.
var figuresGolden = map[string]string{
	"table1":   "aaa8339267fb96fb15795920a44130166e9e55308fbe840d734cae7e2d70844f",
	"figure1":  "34491326c2b774218186ddf2823362ff627cb8e9e3cfa221dcfb39b36d66c270",
	"figure3":  "6fffdf1df40e8a72201f519b681ca29ba783353a46fe3fdd66657dd8befc89a4",
	"figure4":  "d9324d2b4ef97a899cab3dfeae1b5ef38bc9c7a26cd0330d696ae18077c14d4f",
	"figure5":  "84c3999fa7379767ec024b54354f88aaa9171656391bfc3939c95786661757b9",
	"figure6":  "3b3d944b36424cb96c6aed24c42ef0e19c8d31d9f522cfdd3aaaac266de440d4",
	"figure7":  "481b297d5f8e8b71789868f4bf81057036e4f1cda86db2a0d23d721a1001973c",
	"figure8":  "33b7d3eb954cdd818f92dfaa0e7bf920a2e4d11a6dd0426e9c25482230200381",
	"figure9":  "418d5efc9f88e6db210f0e6a506fc0d05a762d258c5d866c946997b7ec136c67",
	"figure10": "5452325835dada9795aa0e3ce4ab987b6b6d60c3e0dacbf8e8df8fea4ef78c97",
	"figure11": "22c94de601122ba5d3aebcdb34a273d9c9f5f111567677e4f509d9cd6f5ef7f1",
	"figure12": "17aefc4e3f87012b9f27892f9df3e9e4cdc79d260c1fc4a2cf229ec4019f1b94",
	"figure13": "8ab47bd3702cef2511e20b24eb18e818c4b5db8e84ee8d61b421ac55ae8dc0e3",
	"figure14": "c360da1628ed639f42e405f996552970c252721360f80eeaa459f2d75194d4f8",
	"figure15": "54f4cea1d1bab35587b088896e4de5ce87b8cb811ee2cfc071c40476422838f1",
	"figure16": "02f8df9fe84b20ee9f1095e1094f192c8297a24acaa94846f3c8d4ee152394b3",
}

// resultDigest hashes everything cmd/figures writes for one result. Each
// string is length-prefixed and each list count-prefixed, so no two results
// share an encoding.
func resultDigest(r Result) string {
	h := sha256.New()
	str := func(s string) { fmt.Fprintf(h, "%d:%s", len(s), s) }
	list := func(ss []string) {
		fmt.Fprintf(h, "[%d]", len(ss))
		for _, s := range ss {
			str(s)
		}
	}
	str(r.ID)
	str(r.Title)
	list(r.CSVHeader)
	fmt.Fprintf(h, "[%d]", len(r.CSVRows))
	for _, row := range r.CSVRows {
		list(row)
	}
	list(r.Lines)
	return hex.EncodeToString(h.Sum(nil))
}

func TestFiguresGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Banks are bit-reproducible per architecture (DESIGN.md §17), and
		// these hashes were recorded on amd64.
		t.Skipf("golden hashes recorded on amd64, running on %s", runtime.GOARCH)
	}
	results, err := Scheduler{}.Run(quickSuite(t), AllJobs())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(figuresGolden) {
		t.Errorf("%d results, %d golden hashes", len(results), len(figuresGolden))
	}
	for _, r := range results {
		if got := resultDigest(r); got != figuresGolden[r.ID] {
			t.Errorf("%s: digest %s, golden %s", r.ID, got, figuresGolden[r.ID])
		}
	}
}
