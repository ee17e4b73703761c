package kvcache

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestForkAppendProperty drives interleaved fork / AppendTokensH / free
// traffic through the cache's only fork, PrefixIndex.Acquire: a new
// sequence seeded with the indexed full blocks of an earlier one, shared
// by refcount. Each seed forks random prefixes of a few shared
// histories, appends past the matched blocks (also past the free list),
// releases with retention or frees outright, and evicts under pressure.
// After every operation the full invariant set must hold — refcounts
// reconcile against block tables and index entries, the O(1) shared
// counter matches the scan, and no partial tail block is shared, which
// is what lets appends write in place — and no block leaks once every
// sequence is freed and the index drained.
func TestForkAppendProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			c, ix := newPrefixCache(t, 4, 48)
			histories := [][]uint64{syms(1000, 40), syms(2000, 40), syms(3000, 40)}
			type live struct {
				id     string
				handle Handle
				hist   []uint64 // the history the sequence was forked from
				syms   []uint64 // content of its tokens so far
			}
			var seqs []live
			next, fresh := 0, uint64(1)<<32
			check := func(op string) {
				t.Helper()
				if err := ix.CheckInvariants(); err != nil { // covers the cache's too
					t.Fatalf("after %s: %v", op, err)
				}
			}
			remove := func(i int) live {
				s := seqs[i]
				seqs[i] = seqs[len(seqs)-1]
				seqs = seqs[:len(seqs)-1]
				return s
			}

			for op := 0; op < 400; op++ {
				switch k := rng.IntN(10); {
				case k < 3 && len(seqs) < 12: // fork a prefix of a shared history
					hist := histories[rng.IntN(len(histories))]
					prompt := hist[:1+rng.IntN(len(hist))]
					id := fmt.Sprintf("s%d", next)
					next++
					matched, err := ix.Acquire(id, prompt)
					if err != nil {
						t.Fatalf("acquire %s: %v", id, err)
					}
					h, err := c.Lookup(id)
					if err != nil {
						t.Fatalf("lookup %s: %v", id, err)
					}
					if h.s.length != matched || matched%4 != 0 {
						t.Fatalf("acquire %s: length %d, matched %d; want equal whole blocks", id, h.s.length, matched)
					}
					seqs = append(seqs, live{id: id, handle: h, hist: hist, syms: append([]uint64(nil), prompt[:matched]...)})
					check("fork " + id)
				case k < 6 && len(seqs) > 0: // append, continuing the history
					s := &seqs[rng.IntN(len(seqs))]
					n := 1 + rng.IntN(9)
					before := s.handle.s.length
					err := c.AppendTokensH(s.handle, n)
					got := s.handle.s.length
					switch {
					case err == ErrOutOfBlocks:
						if got < before || got > before+n {
							t.Fatalf("append %s: partial length %d outside [%d, %d]", s.id, got, before, before+n)
						}
					case err != nil:
						t.Fatalf("append %s: %v", s.id, err)
					case got != before+n:
						t.Fatalf("append %s: length %d, want %d", s.id, got, before+n)
					}
					for len(s.syms) < got {
						if len(s.syms) < len(s.hist) {
							s.syms = append(s.syms, s.hist[len(s.syms)])
						} else {
							s.syms = append(s.syms, fresh)
							fresh++
						}
					}
					check("append " + s.id)
				case k < 7 && len(seqs) > 0: // release with retention
					s := remove(rng.IntN(len(seqs)))
					if err := ix.Release(s.handle, s.syms, nil); err != nil {
						t.Fatalf("release %s: %v", s.id, err)
					}
					check("release " + s.id)
				case k < 8 && len(seqs) > 0: // free outright
					s := remove(rng.IntN(len(seqs)))
					if err := c.FreeH(s.handle); err != nil {
						t.Fatalf("free %s: %v", s.id, err)
					}
					// The handle is dead now; every path must reject it.
					if err := c.AppendTokensH(s.handle, 1); err != ErrUnknownSequence {
						t.Fatalf("stale handle append: got %v, want ErrUnknownSequence", err)
					}
					check("free " + s.id)
				default: // memory pressure: evict retained prefixes
					ix.EnsureFree(1 + rng.IntN(12))
					check("ensure-free")
				}
			}

			for _, s := range seqs {
				if err := c.FreeH(s.handle); err != nil {
					t.Fatalf("final free %s: %v", s.id, err)
				}
			}
			ix.EnsureFree(48)
			check("final drain")
			st := c.Stats()
			if st.FreeBlocks != st.TotalBlocks {
				t.Fatalf("leak: %d of %d blocks free after drain", st.FreeBlocks, st.TotalBlocks)
			}
			if st.SharedBlocks != 0 {
				t.Fatalf("shared counter %d after drain, want 0", st.SharedBlocks)
			}
			if m := ix.Metrics(); m.Hits == 0 {
				t.Fatalf("seed %d never forked a shared prefix", seed)
			}
		})
	}
}
