// Command perfbench is the simulator's end-to-end benchmark. It runs one
// named workload against the program's public API, measures the host
// cost of the run (wall time, CPU, heap), checks the simulated outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object for machine consumption.
//
//	perfbench --workload assistant-soak --seed 1 --seconds 25 --trace 0
//
// --trace 0 is a timed run with the benchmark's tracing off and prints
// the end-to-end metrics. --trace 1 is a separate traced run that prints
// the per-layer ledger. RECORD.md describes the workloads, the metrics
// and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// maxProcs caps GOMAXPROCS so runs on larger hosts stay comparable to
// the 2-core reference machine; a smaller host keeps its own core count.
const maxProcs = 2

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement window in host seconds")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	probe := flag.Bool("setup-probe", false, "internal: prepare the workload, report ready, exit")
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *probe {
		if _, err := w.prepare(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, *seconds)
	} else {
		res, err = timedRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is a metric's name and unit as BENCHMARK.json lists them.
type metricName struct{ name, unit string }

// result is what one benchmark run reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
}

func (r result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}
