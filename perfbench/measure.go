package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heapProbeGOGC is the collector setting of the operation that measures
// the peak live heap. The live heap is only known at the end of a GC
// cycle; collecting at every 10% of growth pins the peak to within 10%
// regardless of when the default setting happens to collect.
const heapProbeGOGC = 10

// opStats is the host cost of one operation.
type opStats struct {
	wall, cpu float64 // seconds
	allocs    uint64  // heap allocations (MemStats.Mallocs delta)
	peakHeap  uint64  // highest live heap seen, bytes
}

// measure runs prepare (untimed) and then one operation, timing it.
// Every operation starts from the same state: the heap collected and
// its free pages returned to the OS, as in a fresh process. With
// heapProbe the operation runs at heapProbeGOGC and samples the live
// heap; its times are not representative.
//
//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func measure(w benchWorkload, seed uint64, rec *recorder, heapProbe bool) (job, opStats, error) {
	j, err := w.prepare(seed)
	if err != nil {
		return nil, opStats{}, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	if heapProbe {
		defer debug.SetGCPercent(debug.SetGCPercent(heapProbeGOGC))
	}
	debug.FreeOSMemory()
	var sampler *heapSampler
	if heapProbe {
		sampler = startHeapSampler()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	j.exec(rec)
	st := opStats{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&after)
	st.allocs = after.Mallocs - before.Mallocs
	if sampler != nil {
		st.peakHeap = sampler.stop()
	}
	return j, st, nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapSampler polls the live heap (as of the latest GC cycle) while an
// operation runs and keeps the maximum.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		peak := liveHeap()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, liveHeap())
			case <-h.done:
				h.peak <- max(peak, liveHeap())
				return
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak; the goroutine has exited
// when it returns.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.peak
}

// setupProber times set-up from process start. Each probe launches this
// binary in probe mode, which prepares the workload, prints ready and
// exits; a probe's time is launch to ready. The probes are spread over
// the run, a few after each operation, so that setup_s averages over the
// same window as the other metrics rather than one moment of it.
type setupProber struct {
	self  string
	w     benchWorkload
	seed  uint64
	times []float64
}

const (
	probesPerOp = 4
	minProbes   = 24
	// The first launches of a run read the binary from disk; they are
	// dropped.
	warmupProbes = 2
)

func newSetupProber(w benchWorkload, seed uint64) (*setupProber, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &setupProber{self: self, w: w, seed: seed}
	err = p.run(warmupProbes)
	p.times = p.times[:0]
	return p, err
}

func (p *setupProber) run(n int) error {
	for i := 0; i < n; i++ {
		t, err := probeOnce(p.self, p.w.name, p.seed)
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		p.times = append(p.times, t)
	}
	return nil
}

//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func probeOnce(self, name string, seed uint64) (float64, error) {
	cmd := exec.Command(self, "--setup-probe", "--workload", name, "--seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	t := time.Since(t0).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("probe printed %q, want ready", line)
	}
	return t, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd lists the end-to-end metrics with their units. All are host
// costs; the simulated results are outputs the checks judge.
var endToEnd = []metricName{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_heap_mb", "MB"}, {"alloc_count", "count"},
}

// timedRun is the --trace 0 run: one operation that measures the peak
// live heap, then timed operations back to back until the window is
// spent, with set-up probes after each. Every operation is checked.
// Times and allocation counts are medians.
//
//edgereasoning:wallclock -- the benchmark times host work; simulated time is an output it checks
func timedRun(w benchWorkload, seed uint64, seconds float64) (result, error) {
	prober, err := newSetupProber(w, seed)
	if err != nil {
		return result{}, err
	}
	res := result{correct: true}
	var walls, cpus, allocs []float64
	var first outcome
	var peak float64
	start := time.Now()
	for ops := 0; ops < 2 || time.Since(start).Seconds() < seconds; ops++ {
		heapProbe := ops == 0
		j, st, err := measure(w, seed, nil, heapProbe)
		if err != nil {
			return result{}, err
		}
		o := j.check()
		if ops == 0 {
			first = o
		} else if o.digest != first.digest {
			o.fail("simulated digest changed between operations of one run")
			o.failed = max(o.failed, 1)
		}
		res.add(w.name, o)
		if err := prober.run(probesPerOp); err != nil {
			return result{}, err
		}
		allocs = append(allocs, float64(st.allocs))
		if heapProbe {
			peak = float64(st.peakHeap) / (1 << 20)
			continue
		}
		walls = append(walls, st.wall)
		cpus = append(cpus, st.cpu)
	}
	if err := prober.run(minProbes - len(prober.times)); err != nil {
		return result{}, err
	}
	setup := median(prober.times)
	wall := median(walls)
	values := map[string]float64{
		"setup_s":      setup,
		"wall_s":       wall,
		"cpu_s":        median(cpus),
		"peak_heap_mb": peak,
		"alloc_count":  median(allocs),
	}
	res.metrics = make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		res.metrics[e.name] = metric{values[e.name], e.unit}
	}
	fmt.Printf("perfbench %s: seed %d, GOMAXPROCS %d, %d operations in %.1f s\n",
		w.name, seed, runtime.GOMAXPROCS(0), len(allocs), time.Since(start).Seconds())
	fmt.Printf("  %-18s %14.6f s      median of %d process starts\n", "setup_s", setup, len(prober.times))
	printSpread("wall_s", "s", walls)
	printSpread("cpu_s", "s", cpus)
	fmt.Printf("  %-18s %14.6f MB     one operation at GOGC=%d\n", "peak_heap_mb", peak, heapProbeGOGC)
	printSpread("alloc_count", "count", allocs)
	if first.events > 0 {
		fmt.Printf("  %-18s %14.0f 1/s    sim events per wall second (%d events per operation)\n",
			"sim_events_per_s", float64(first.events)/wall, first.events)
	}
	fmt.Printf("  %-18s %14.6f frac   %d of %d operations failed\n",
		"failed_frac", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	if w.name == "paper-suite" {
		fmt.Printf("  %-18s %14.4f %%      mean absolute deviation from the paper's anchors\n", "anchor_dev_pct", first.anchorDevPct)
	}
	fmt.Printf("digest %s: %s\n", w.name, first.digest)
	printFailures(w.name, first.failures)
	return res, nil
}

// add folds one operation's outcome into the run's totals. Any failure
// that is not a known defect makes the run incorrect.
func (r *result) add(workload string, o outcome) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if knownDefect(workload, f) == "" {
			r.correct = false
		}
	}
}

func printFailures(workload string, failures []string) {
	for _, f := range failures {
		if why := knownDefect(workload, f); why != "" {
			fmt.Printf("  known defect: %s\n    (%s)\n", f, why)
		} else {
			fmt.Printf("  FAILED: %s\n", f)
		}
	}
}

func printSpread(name, unit string, v []float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	fmt.Printf("  %-18s %14.6f %-6s median of %d (min %.6g, max %.6g)\n", name, median(s), unit, len(s), s[0], s[len(s)-1])
}
