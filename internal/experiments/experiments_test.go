package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"edgereasoning/internal/model"
)

func quickOpts() Options { return Options{Seed: 7, Quick: true} }

// runOne executes a driver and sanity-checks the artifacts render.
func runOne(t *testing.T, id string) []Table {
	t.Helper()
	tables, err := Run(id, quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" || len(tb.Columns) == 0 {
			t.Errorf("%s: malformed table %+v", id, tb)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s/%s: empty table", id, tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s/%s: row width %d != %d columns", id, tb.ID, len(row), len(tb.Columns))
			}
		}
		var buf bytes.Buffer
		if err := tb.Render(&buf); err != nil {
			t.Errorf("%s/%s: render: %v", id, tb.ID, err)
		}
		if err := tb.WriteCSV(&buf); err != nil {
			t.Errorf("%s/%s: csv: %v", id, tb.ID, err)
		}
	}
	return tables
}

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) { runOne(t, id) })
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", quickOpts()); err == nil {
		t.Error("unknown id must error")
	}
}

func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig1", "table2", "table3", "fig2", "fig3", "table6", "table7",
		"fig4", "fig5", "table8", "fig6", "fig7", "fig8", "table10",
		"table11", "fig9", "fig10", "quant", "table9", "table12",
		"naturalplan", "cpu", "pareto",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

// cellFloat parses a numeric cell.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// findTable locates a sub-table by ID.
func findTable(t *testing.T, tables []Table, id string) Table {
	t.Helper()
	for _, tb := range tables {
		if tb.ID == id {
			return tb
		}
	}
	t.Fatalf("table %s not produced", id)
	return Table{}
}

// Table II content check: reasoning models are more accurate but far
// slower than direct models of comparable size.
func TestTable2Orderings(t *testing.T) {
	tb := findTable(t, runOne(t, "table2"), "table2")
	get := func(name string) []float64 {
		for _, row := range tb.Rows {
			if row[0] == name {
				return []float64{cellFloat(t, row[1]), cellFloat(t, row[2])}
			}
		}
		t.Fatalf("row %q missing", name)
		return nil
	}
	dsr14 := get("DSR1-Qwen-14B")
	llama := get("Llama3.1-8B-it")
	dsr8 := get("DSR1-Llama-8B")
	if dsr14[0] <= llama[0] {
		t.Errorf("14B reasoning accuracy (%.1f) must beat direct Llama (%.1f)", dsr14[0], llama[0])
	}
	if dsr8[1] < 10*llama[1] {
		t.Errorf("reasoning 8B time (%.1fs) must dwarf direct 8B (%.1fs): paper reports >20x", dsr8[1], llama[1])
	}
}

// Table III content check: batching collapses cost per token.
func TestTable3BatchingEconomics(t *testing.T) {
	tb := findTable(t, runOne(t, "table3"), "table3")
	var price1, price30 float64
	for _, row := range tb.Rows {
		if row[0] == "price_output_per_1M" {
			price1 = cellFloat(t, row[2])
			price30 = cellFloat(t, row[3])
		}
	}
	if price1 <= 0 || price30 <= 0 {
		t.Fatal("prices missing")
	}
	if price30 >= price1/3 {
		t.Errorf("batch-30 price (%.3f) should collapse vs batch-1 (%.3f); paper: 0.027 vs 0.302", price30, price1)
	}
	// Edge batch-1 must still be far under cloud's $60/M.
	if price1 > 2 {
		t.Errorf("edge price %.3f per 1M implausible", price1)
	}
}

// Fig 9 content check: accuracy rises with SF at the 128 budget.
func TestFig9ScalingShape(t *testing.T) {
	tables := runOne(t, "fig9")
	tb := findTable(t, tables, "fig9a")
	acc := map[string]map[int]float64{}
	for _, row := range tb.Rows {
		m := row[0]
		sf := int(cellFloat(t, row[1]))
		if acc[m] == nil {
			acc[m] = map[int]float64{}
		}
		acc[m][sf] = cellFloat(t, row[2])
	}
	for _, m := range []string{"dsr1-llama-8b", "dsr1-qwen-14b"} {
		if acc[m][32] <= acc[m][1] {
			t.Errorf("%s: SF32 (%.1f) should beat SF1 (%.1f) at 128 budget", m, acc[m][32], acc[m][1])
		}
	}
}

// Fig 10 content check: latency and power rise with SF but sublinearly.
func TestFig10ParallelShape(t *testing.T) {
	tb := findTable(t, runOne(t, "fig10"), "fig10")
	lat := map[string]map[int]float64{}
	pow := map[string]map[int]float64{}
	for _, row := range tb.Rows {
		m, sf := row[0], int(cellFloat(t, row[1]))
		if lat[m] == nil {
			lat[m], pow[m] = map[int]float64{}, map[int]float64{}
		}
		lat[m][sf] = cellFloat(t, row[2])
		pow[m][sf] = cellFloat(t, row[4])
	}
	for m := range lat {
		if lat[m][32] <= lat[m][1] {
			t.Errorf("%s: decode latency must rise with SF", m)
		}
		if lat[m][32] > 3*lat[m][1] {
			t.Errorf("%s: SF32 latency %.1fx of SF1; paper reports ~2x at SF64", m, lat[m][32]/lat[m][1])
		}
		if pow[m][32] <= pow[m][1] {
			t.Errorf("%s: power must rise with SF", m)
		}
	}
}

// Fig 10a: parallel decode latency grows only mildly with SF. The shared
// prompt is prefilled once, so SF=32 on DSR1-Llama-8B costs more than
// SF=1 but at most 2.5x (the paper reports under 2x up to SF=64).
func TestFig10LatencySublinear(t *testing.T) {
	tb := findTable(t, runOne(t, "fig10"), "fig10")
	lat := map[int]float64{}
	for _, row := range tb.Rows {
		if row[0] == string(model.DSR1Llama8B) {
			lat[int(cellFloat(t, row[1]))] = cellFloat(t, row[2])
		}
	}
	if lat[1] <= 0 {
		t.Fatalf("no SF=1 row for %s", model.DSR1Llama8B)
	}
	if r := lat[32] / lat[1]; r <= 1 || r > 2.5 {
		t.Errorf("%s SF32/SF1 decode latency = %.2f, want in (1, 2.5]", model.DSR1Llama8B, r)
	}
}

// Pareto regimes: the fast regime is served by small models, the open
// regime by the 14B.
func TestParetoRegimeContents(t *testing.T) {
	tables := runOne(t, "pareto")
	rt := findTable(t, tables, "regimes")
	if len(rt.Rows) < 2 {
		t.Fatal("expected at least 2 regimes")
	}
	last := rt.Rows[len(rt.Rows)-1]
	if !strings.Contains(last[1], "14B") {
		t.Errorf("open-ended regime won by %q, expected a 14B recipe", last[1])
	}
}

// Table 10 includes all three families.
func TestTable10Families(t *testing.T) {
	tb := findTable(t, runOne(t, "table10"), "table10")
	fam := map[string]int{}
	for _, row := range tb.Rows {
		fam[row[0]]++
	}
	if fam["Base"] < 4 || fam["Quantized"] < 3 || fam["Direct"] < 3 {
		t.Errorf("family counts wrong: %v", fam)
	}
}

// CPU tables: the GPU wins every cell.
func TestCPUAlwaysSlower(t *testing.T) {
	for _, tb := range runOne(t, "cpu") {
		for _, row := range tb.Rows {
			speedup := cellFloat(t, row[4])
			if speedup <= 1 {
				t.Errorf("%s: GPU speedup %.2f <= 1 in row %v", tb.ID, speedup, row)
			}
		}
	}
}

func TestOptionsSample(t *testing.T) {
	full := Options{Seed: 1}
	if full.sample(3000) != 3000 {
		t.Error("full options must not subsample")
	}
	q := Options{Seed: 1, Quick: true}
	if got := q.sample(3000); got != 300 {
		t.Errorf("quick sample = %d, want 300", got)
	}
	if got := q.sample(100); got != 100 {
		t.Errorf("quick sample of small bank = %d, want 100", got)
	}
}
