package experiments

import (
	"strconv"
	"testing"
)

// TestTieringFullSizeAllSeeds runs the full-size tiering study at seeds
// 1–8: the default sweep's starved point is derived from the stream, so
// the device cache always holds the largest single request and no seed
// fails with a request that exceeds KV capacity even alone.
func TestTieringFullSizeAllSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		tables, err := Run("tiering", Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sweep := findTable(t, tables, "tiering")
		starved, err := strconv.Atoi(sweep.Rows[0][0])
		if err != nil || starved < 192 {
			t.Errorf("seed %d: starved point %q, want a block count >= 192", seed, sweep.Rows[0][0])
		}
	}
}
