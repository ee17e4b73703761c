package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenReports locks byte-exact renderings of representative
// drivers at the default seed: the scheduler comparison (guarding the
// deterministic-report fix), the fleet sweep (guarding its verify table,
// including its pass marks), the session study (guarding the
// prefix-cache wins — warm TTFT, saved prefill, affinity hit rate — as
// rendered pass marks), the autoscale study (guarding the elastic-
// vs-fixed and shed-vs-FIFO verify marks plus the scale-event
// timeline), the saturation study (guarding the knee-vs-fleet-size
// scaling and the analyzer's typed edge errors), and the tiering study
// (guarding the host-tier verify marks — starved-point hit rate, warm
// tail TTFT, token identity), and the outage drills (guarding the
// recovery verify marks — retry+health beating abandonment on served
// and hit rate at every fault point, with exact conservation), and the
// two llm-twin drivers, Fig 9's majority-voting sweep and Table XII's
// budget ladder (guarding the twin's sampled lengths and answers, which
// no serving golden reaches).
// Regenerate intentionally with
//
//	go test ./internal/experiments -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	for _, id := range []string{"sched", "fleet", "sessions", "tiering", "autoscale", "saturate", "drills", "breakdown", "fig9", "table12"} {
		t.Run(id, func(t *testing.T) {
			tables, err := Run(id, Options{Seed: 7, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for i := range tables {
				if err := tables[i].Render(&buf); err != nil {
					t.Fatal(err)
				}
			}
			golden := filepath.Join("testdata", id+"_seed7_quick.golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s report drifted from golden file %s.\nIf the change is intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s",
					id, golden, buf.Bytes(), want)
			}
		})
	}
}
