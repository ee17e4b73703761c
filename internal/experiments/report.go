// Package experiments contains one driver per table and figure in the
// paper's evaluation. Each driver runs the relevant workload on the
// simulated platform and renders the same rows/series the paper reports,
// so EXPERIMENTS.md can put paper values and reproduced values side by
// side. Drivers are deterministic in Options.Seed.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options configures a driver run.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick subsamples the large banks so the full suite stays fast
	// (useful in tests; benches run full size).
	Quick bool

	// Fleet* parameterize the "fleet" driver (the CLI's fleet
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them.
	FleetReplicas int     // fleet size (default 4)
	FleetPolicy   string  // routing policy, or ""/"all" for every policy
	FleetQPS      float64 // offered load (default 2.0)
	FleetDevices  string  // comma-separated device cycle (default heterogeneous Orin mix)

	// Auto* parameterize the "autoscale" driver (the CLI's autoscale
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them. The driver also honors
	// FleetQPS (background load) and FleetDevices (provision cycle).
	AutoMin       int    // pool floor (default 1)
	AutoMax       int    // pool ceiling (default 6)
	AutoAdmission string // ingress discipline for the elastic run (default fifo)
	AutoScaleOn   string // scale-up signals: depth, miss, or both (default both)

	// Session* parameterize the "sessions" driver (the CLI's sessions
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them.
	SessionCount  int    // concurrent sessions (default 10; quick 6)
	SessionTurns  int    // agent-loop turns per session (default 5; quick 3)
	SessionBranch int    // parallel think samples at branch turns (default 2)
	SessionPolicy string // affinity-table policy, or ""/"all" for the comparison set

	// Tier* parameterize the "tiering" driver (the CLI's tiering
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them. The driver also honors the
	// Session* workload knobs above.
	TierDeviceBlocks string  // comma-separated device-cache sizes in blocks (default: a starved point, 192 or the largest request, then 2x and 4x it)
	TierHostBlocks   int     // host-tier capacity in blocks (default 1024)
	TierLinkBW       float64 // host-link bandwidth in bytes/s (default kvcache.DefaultHostLinkBandwidth)

	// Drill* parameterize the "drills" driver (the CLI's drills
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them. The driver also honors
	// FleetDevices (replica provision cycle).
	DrillReplicas int     // pool size under fault injection (default 3)
	DrillRestart  float64 // crash restart delay in seconds (default 10)

	// Sat* parameterize the "saturate" driver (the CLI's saturate
	// subcommand threads them through); zero values select the driver's
	// defaults and other drivers ignore them. The driver also honors
	// FleetDevices (replica provision cycle).
	SatSLO      float64 // objective: p99 bound in seconds, or hit-rate floor in [0,1]
	SatMetric   string  // "p99" (default) or "hitrate"
	SatRequests int     // requests offered per probe (default 240; quick 120)
}

// DefaultOptions is the standard full-fidelity configuration.
func DefaultOptions() Options { return Options{Seed: 7} }

// sample returns the bank subsample size for a nominal full size.
func (o Options) sample(full int) int {
	if !o.Quick {
		return full
	}
	quick := full / 10
	if quick < 150 {
		quick = 150
	}
	if quick > full {
		quick = full
	}
	return quick
}

// Table is one rendered artifact (a paper table, or a figure's underlying
// series).
type Table struct {
	ID      string // "table2", "fig7b", ...
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry caveats (interpolated cells, known deviations).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV emits the table as CSV (header + rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Formatting helpers used across drivers.
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string  { return fmt.Sprintf("%.4f", x) }
func sci(x float64) string { return fmt.Sprintf("%.3g", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f", x*100) }
func di(x int) string      { return fmt.Sprintf("%d", x) }

// Driver produces one or more artifacts.
type Driver func(Options) ([]Table, error)

// registry maps experiment IDs to drivers; populated by init functions in
// the driver files.
var registry = map[string]Driver{}

// register installs a driver (panics on duplicates — programmer error).
func register(id string, d Driver) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate driver " + id)
	}
	registry[id] = d
}

// Run executes one experiment by ID.
func Run(id string, opts Options) ([]Table, error) {
	d, ok := registry[id]
	if !ok {
		return nil, UnknownIDError(id)
	}
	return d(opts)
}

// UnknownIDError is the canonical error for an unregistered experiment
// ID, listing the valid IDs so a typo is self-correcting.
func UnknownIDError(id string) error {
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// Known reports whether an experiment ID is registered.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}

// IDs lists registered experiments in a stable order.
func IDs() []string {
	order := []string{
		"fig1", "table2", "table3",
		"fig2", "fig3", "table6", "table7",
		"fig4", "fig5", "table8",
		"fig6", "fig7", "fig8", "table10", "table11",
		"fig9", "fig10",
		"quant", "table9",
		"table12", "naturalplan", "cpu",
		"pareto",
		// Extensions beyond the paper's measured artifacts (§VI future
		// work and design-choice ablations).
		"saturation", "batchsweep", "powermodes", "specdec", "offload",
		"fleet", "sessions", "tiering", "autoscale", "saturate", "drills",
		"breakdown",
	}
	out := make([]string, 0, len(registry))
	for _, id := range order {
		if _, ok := registry[id]; ok {
			out = append(out, id)
		}
	}
	// Append anything registered but not in the preferred order, sorted
	// for stable output.
	var rest []string
	for id := range registry {
		found := false
		for _, o := range out {
			if o == id {
				found = true
				break
			}
		}
		if !found {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}
