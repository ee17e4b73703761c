package kvcache

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// snapshot serializes a cache's complete observable state — per-sequence
// lengths and block tables, refcounts, and the free list — so two caches
// driven through different APIs can be compared exactly.
func snapshot(c *Cache) string {
	var b strings.Builder
	ids := make([]string, 0, len(c.seqs))
	for id := range c.seqs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s := c.seqs[id]
		fmt.Fprintf(&b, "seq %s len=%d blocks=%v\n", id, s.length, s.blocks)
	}
	fmt.Fprintf(&b, "refcount=%v\nfree=%v\n", c.refcount, c.free)
	return b.String()
}

// appendLoop emulates a per-token decode loop: n single-token
// AppendTokensH calls, stopping at the first error.
func appendLoop(c *Cache, h Handle, n int) error {
	for t := 0; t < n; t++ {
		if err := c.AppendTokensH(h, 1); err != nil {
			return err
		}
	}
	return nil
}

// TestAppendTokensEquivalence drives two caches through one random
// workload — allocate, free, and variable-size appends — appending one
// token per call on one and the whole chunk in one AppendTokensH call on
// the other. After every operation both must agree on the error returned
// and on the full cache state (lengths, block tables, refcounts,
// free-list order), including the partial progress left behind when an
// append runs out of blocks.
func TestAppendTokensEquivalence(t *testing.T) {
	for _, bs := range []int{1, 3, 16} {
		for _, blocks := range []int{8, 64} {
			t.Run(fmt.Sprintf("bs%d_blocks%d", bs, blocks), func(t *testing.T) {
				for seed := uint64(0); seed < 8; seed++ {
					testEquivalenceSeed(t, bs, blocks, seed)
				}
			})
		}
	}
}

func testEquivalenceSeed(t *testing.T, blockSize, numBlocks int, seed uint64) {
	t.Helper()
	cfg := Config{BlockSize: blockSize, NumBlocks: numBlocks, BytesPerToken: 64}
	newCache := func() *Cache {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	tokenwise, bulk := newCache(), newCache()
	// handles[id] holds id's handle on tokenwise and on bulk.
	handles := map[string][2]Handle{}

	r := rand.New(rand.NewPCG(seed, 41))
	var live []string
	next := 0
	check := func(op string, errA, errB error) {
		t.Helper()
		if errA != errB {
			t.Fatalf("seed %d %s: error divergence: tokenwise=%v bulk=%v", seed, op, errA, errB)
		}
		if a, b := snapshot(tokenwise), snapshot(bulk); a != b {
			t.Fatalf("seed %d %s: state divergence\ntokenwise:\n%s\nbulk:\n%s", seed, op, a, b)
		}
		for name, c := range map[string]*Cache{"tokenwise": tokenwise, "bulk": bulk} {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d %s: %s invariants: %v", seed, op, name, err)
			}
		}
	}

	for op := 0; op < 250; op++ {
		switch r.IntN(4) {
		case 0: // allocate
			id := fmt.Sprintf("s%d", next)
			next++
			tokens := r.IntN(3 * blockSize)
			errA := tokenwise.AllocateReserve(id, tokens, tokens)
			errB := bulk.AllocateReserve(id, tokens, tokens)
			if errA == nil && errB == nil {
				ha, err := tokenwise.Lookup(id)
				if err != nil {
					t.Fatalf("Lookup(%s) after AllocateReserve: %v", id, err)
				}
				hb, err := bulk.Lookup(id)
				if err != nil {
					t.Fatalf("Lookup(%s) after AllocateReserve: %v", id, err)
				}
				handles[id] = [2]Handle{ha, hb}
				live = append(live, id)
			}
			check(fmt.Sprintf("allocate %s %d", id, tokens), errA, errB)
		case 1, 2: // append a variable-size chunk (the interesting op)
			if len(live) == 0 {
				continue
			}
			id := live[r.IntN(len(live))]
			n := r.IntN(3*blockSize + 5)
			errA := appendLoop(tokenwise, handles[id][0], n)
			errB := bulk.AppendTokensH(handles[id][1], n)
			check(fmt.Sprintf("append %s %d", id, n), errA, errB)
		case 3: // free
			if len(live) == 0 {
				continue
			}
			i := r.IntN(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			errA := tokenwise.FreeH(handles[id][0])
			errB := bulk.FreeH(handles[id][1])
			delete(handles, id)
			check(fmt.Sprintf("free %s", id), errA, errB)
		}
	}
}

func TestAppendTokensZeroAndUnknown(t *testing.T) {
	c := newTestCache(t, 8)
	if err := c.AppendTokensH(Handle{}, 4); err != ErrUnknownSequence {
		t.Errorf("AppendTokensH through the zero handle = %v, want ErrUnknownSequence", err)
	}
	if _, err := c.Lookup("ghost"); err != ErrUnknownSequence {
		t.Errorf("Lookup on ghost = %v, want ErrUnknownSequence", err)
	}
	h := alloc(t, c, "a", 10)
	if err := c.AppendTokensH(h, 0); err != nil {
		t.Errorf("AppendTokensH n=0 = %v, want nil", err)
	}
	if err := c.AppendTokensH(h, -3); err != nil {
		t.Errorf("AppendTokensH n<0 = %v, want nil (no-op)", err)
	}
	if n := h.s.length; n != 10 {
		t.Errorf("length after no-op appends = %d, want 10", n)
	}
}

// TestHandleLifecycle pins the staleness contract: a handle dies with its
// sequence, whichever handle freed it, and handles from another cache are
// rejected.
func TestHandleLifecycle(t *testing.T) {
	c := newTestCache(t, 16)
	h := alloc(t, c, "a", 20)
	if err := c.AppendTokensH(h, 30); err != nil {
		t.Fatal(err)
	}
	if n := h.s.length; n != 50 {
		t.Errorf("length = %d, want 50", n)
	}
	if err := c.FreeH(h); err != nil {
		t.Fatal(err)
	}
	if err := c.FreeH(h); err != ErrUnknownSequence {
		t.Errorf("double FreeH = %v, want ErrUnknownSequence", err)
	}
	if err := c.AppendTokensH(h, 1); err != ErrUnknownSequence {
		t.Errorf("append through stale handle = %v, want ErrUnknownSequence", err)
	}
	// Freeing through a second handle to the same sequence must also
	// invalidate the first, even after the shell is recycled.
	hb := alloc(t, c, "b", 4)
	if err := freeID(c, "b"); err != nil {
		t.Fatal(err)
	}
	alloc(t, c, "b", 4)
	if err := c.AppendTokensH(hb, 1); err != ErrUnknownSequence {
		t.Errorf("append after another handle's FreeH = %v, want ErrUnknownSequence", err)
	}
	// Handles are cache-scoped.
	ha := alloc(t, newTestCache(t, 16), "a", 4)
	if err := c.AppendTokensH(ha, 1); err != ErrUnknownSequence {
		t.Errorf("foreign handle = %v, want ErrUnknownSequence", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAppendTokensPartialProgress pins the documented out-of-blocks
// behavior: the sequence is left exactly where a token-wise loop would
// have stopped.
func TestAppendTokensPartialProgress(t *testing.T) {
	c := newTestCache(t, 4)        // 4 blocks of 16 tokens
	h := alloc(t, c, "a", 24)      // 2 blocks, 8 free slots in tail
	err := c.AppendTokensH(h, 100) // wants 8 more blocks; only 2 exist
	if err != ErrOutOfBlocks {
		t.Fatalf("got %v, want ErrOutOfBlocks", err)
	}
	// Tail filled (8) plus two whole grabbed blocks (32) = 64 tokens.
	if n := h.s.length; n != 64 {
		t.Errorf("partial length = %d, want 64", n)
	}
	if st := c.Stats(); st.UsedBlocks != 4 || st.FreeBlocks != 0 {
		t.Errorf("after partial append: %+v", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
