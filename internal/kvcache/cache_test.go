package kvcache

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func newTestCache(t *testing.T, blocks int) *Cache {
	t.Helper()
	c, err := New(Config{BlockSize: 16, NumBlocks: blocks, BytesPerToken: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// alloc admits id with tokens through the engine's path — AllocateReserve
// then Lookup — and returns its handle.
func alloc(t *testing.T, c *Cache, id string, tokens int) Handle {
	t.Helper()
	if err := c.AllocateReserve(id, tokens, tokens); err != nil {
		t.Fatal(err)
	}
	h, err := c.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// freeID releases id through a fresh handle.
func freeID(c *Cache, id string) error {
	h, err := c.Lookup(id)
	if err != nil {
		return err
	}
	return c.FreeH(h)
}

func TestAllocateAndFree(t *testing.T) {
	c := newTestCache(t, 64)
	h := alloc(t, c, "a", 100)
	st := c.Stats()
	if st.UsedBlocks != 7 { // ceil(100/16)
		t.Errorf("used blocks = %d, want 7", st.UsedBlocks)
	}
	if err := c.FreeH(h); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.UsedBlocks != 0 || st.FreeBlocks != 64 {
		t.Errorf("after free: %+v", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllocateDuplicate(t *testing.T) {
	c := newTestCache(t, 8)
	alloc(t, c, "a", 1)
	if err := c.AllocateReserve("a", 1, 1); err != ErrSequenceExists {
		t.Errorf("got %v, want ErrSequenceExists", err)
	}
}

func TestAllocateOutOfBlocks(t *testing.T) {
	c := newTestCache(t, 4)
	err := c.AllocateReserve("big", 100, 100) // needs 7 blocks
	if err != ErrOutOfBlocks {
		t.Fatalf("got %v, want ErrOutOfBlocks", err)
	}
	// Failed allocation must not leak.
	if st := c.Stats(); st.UsedBlocks != 0 {
		t.Errorf("leaked blocks after failed allocation: %+v", st)
	}
}

func TestAppendTokenBlockBoundary(t *testing.T) {
	c := newTestCache(t, 8)
	h := alloc(t, c, "a", 16)
	if st := c.Stats(); st.UsedBlocks != 1 {
		t.Fatalf("want 1 block, got %d", st.UsedBlocks)
	}
	if err := c.AppendTokensH(h, 1); err != nil { // crosses into block 2
		t.Fatal(err)
	}
	if st := c.Stats(); st.UsedBlocks != 2 {
		t.Errorf("after boundary append: %d blocks, want 2", st.UsedBlocks)
	}
	if n := h.s.length; n != 17 {
		t.Errorf("length = %d, want 17", n)
	}
}

func TestUnknownSequenceErrors(t *testing.T) {
	c := newTestCache(t, 8)
	if _, err := c.Lookup("ghost"); err != ErrUnknownSequence {
		t.Error("Lookup on ghost should fail")
	}
	var zero Handle
	if err := c.AppendTokensH(zero, 1); err != ErrUnknownSequence {
		t.Error("AppendTokensH through the zero handle should fail")
	}
	if err := c.ReserveH(zero, 64); err != ErrUnknownSequence {
		t.Error("ReserveH through the zero handle should fail")
	}
	if err := c.FreeH(zero); err != ErrUnknownSequence {
		t.Error("FreeH through the zero handle should fail")
	}
}

func TestConfigForMemory(t *testing.T) {
	// 1 MiB budget, 16-token blocks, 1 KiB per token -> 64 blocks.
	cfg := ConfigForMemory(1<<20, 16, 1024)
	if cfg.NumBlocks != 64 {
		t.Errorf("NumBlocks = %d, want 64", cfg.NumBlocks)
	}
	if cfg.BlockSize != 16 {
		t.Errorf("BlockSize = %d, want 16", cfg.BlockSize)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{BlockSize: 0, NumBlocks: 1}).Validate(); err == nil {
		t.Error("zero BlockSize must fail")
	}
	if err := (Config{BlockSize: 16, NumBlocks: 0}).Validate(); err == nil {
		t.Error("zero NumBlocks must fail")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with invalid config must fail")
	}
}

func TestPeakUsedHighWaterMark(t *testing.T) {
	c := newTestCache(t, 16)
	ha := alloc(t, c, "a", 64) // 4 blocks
	alloc(t, c, "b", 64)       // 4 blocks
	_ = c.FreeH(ha)
	st := c.Stats()
	if st.PeakUsed != 8 {
		t.Errorf("peak = %d, want 8", st.PeakUsed)
	}
	if st.UsedBlocks != 4 {
		t.Errorf("used = %d, want 4", st.UsedBlocks)
	}
}

// Property: a random workload of allocate/append/free operations through
// handles never violates the cache invariants, and freeing everything
// returns the cache to empty.
func TestRandomWorkloadInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		c, err := New(Config{BlockSize: 16, NumBlocks: 128, BytesPerToken: 64})
		if err != nil {
			return false
		}
		var live []Handle
		next := 0
		for op := 0; op < 200; op++ {
			switch r.IntN(3) {
			case 0: // allocate
				id := fmt.Sprintf("s%d", next)
				next++
				tokens := 1 + r.IntN(100)
				if c.AllocateReserve(id, tokens, tokens) == nil {
					h, err := c.Lookup(id)
					if err != nil {
						return false
					}
					live = append(live, h)
				}
			case 1: // append
				if len(live) > 0 {
					_ = c.AppendTokensH(live[r.IntN(len(live))], 1+r.IntN(40))
				}
			case 2: // free
				if len(live) > 0 {
					i := r.IntN(len(live))
					if c.FreeH(live[i]) != nil {
						return false
					}
					live = append(live[:i], live[i+1:]...)
				}
			}
			if c.CheckInvariants() != nil {
				return false
			}
		}
		for _, h := range live {
			if c.FreeH(h) != nil {
				return false
			}
		}
		st := c.Stats()
		return st.UsedBlocks == 0 && st.FreeBlocks == st.TotalBlocks && c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsSharedPartialTail pins the audit that replaced the
// copy-on-write branch: a second reference to a sequence's partial tail
// block — here one the prefix index would hold — is reported, because
// appendTokens writes that block in place.
func TestCheckInvariantsSharedPartialTail(t *testing.T) {
	c := newTestCache(t, 8)
	h := alloc(t, c, "a", 20) // tail block holds 4 of 16 tokens
	tail := h.s.blocks[len(h.s.blocks)-1]
	c.retain(tail)
	c.indexRef(tail, 1)
	err := c.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "partial tail") {
		t.Fatalf("CheckInvariants = %v, want a partial-tail refcount error", err)
	}
}
