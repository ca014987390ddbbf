package kvcache

import (
	"strings"
	"testing"
	"unsafe"
)

// TestPrefixBlockSize pins prefixBlock at 64 bytes on 64-bit hosts: the
// LRU heap fields (born, hidx) fit only because index is an int32 and
// state a uint8. Growing the struct costs bytes on every cached page.
func TestPrefixBlockSize(t *testing.T) {
	if unsafe.Sizeof(int(0)) != 8 {
		t.Skip("size pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(prefixBlock{}); got != 64 {
		t.Fatalf("prefixBlock is %d bytes, want 64", got)
	}
}

// newCorruptionManager builds a tiered manager whose idle heap, host
// heap and held blocks are all non-trivial, so each heap invariant has
// something to break: 24 two-block keys cycle through a 16-page device
// with a 4-page host tier, and the last admit stays held.
func newCorruptionManager(t *testing.T) *Manager {
	t.Helper()
	m, err := New(Config{
		Policy:        Paged,
		Prefix:        PrefixTiered,
		PageTokens:    16,
		BytesPerToken: 1,
		CapacityBytes: 16 * 16,
		MaxSeqLen:     256,
		HostBytes:     4 * 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for id := 0; id < n; id++ {
		key := string(rune('a' + id))
		if _, err := m.AdmitWithPrefix(id, 40, key, 32); err != nil {
			t.Fatalf("admit %d: %v", id, err)
		}
		if id == n-1 {
			break
		}
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Invariant(); err != nil {
		t.Fatalf("fresh manager fails its invariant: %v", err)
	}
	if m.idle.len() < 3 || m.host.len() < 3 {
		t.Fatalf("idle %d / host %d blocks, want at least 3 of each", m.idle.len(), m.host.len())
	}
	return m
}

// heldBlock returns a block some sequence holds (refcount > 0).
func heldBlock(t *testing.T, m *Manager) *prefixBlock {
	t.Helper()
	for _, s := range m.seqs {
		if len(s.prefix) > 0 {
			return s.prefix[0]
		}
	}
	t.Fatal("no held prefix block")
	return nil
}

// TestPrefixInvariantCatchesCorruption breaks each heap-related check in
// prefixInvariant on purpose and asserts Invariant reports that check.
func TestPrefixInvariantCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, m *Manager)
		want    string
	}{
		{
			// Membership: an idle block silently leaves the idle heap.
			name:    "idle-block-outside-heap",
			corrupt: func(t *testing.T, m *Manager) { m.idle.remove(m.idle.len() - 1) },
			want:    "missing from its heap",
		},
		{
			// Membership: a host block silently leaves the host heap.
			name:    "host-block-outside-heap",
			corrupt: func(t *testing.T, m *Manager) { m.host.remove(0) },
			want:    "missing from its heap",
		},
		{
			// Membership: a held block is offered for spilling.
			name:    "held-block-in-idle-heap",
			corrupt: func(t *testing.T, m *Manager) { m.idle.push(heldBlock(t, m)) },
			want:    "outside any heap",
		},
		{
			// Membership: a host block is pushed onto the idle heap as
			// well, so the idle heap holds more than the chains' idle set.
			name: "host-block-in-both-heaps",
			corrupt: func(t *testing.T, m *Manager) {
				b := m.host.s[0]
				m.idle.s = append(m.idle.s, b)
			},
			want: "heap sizes",
		},
		{
			// hidx consistency: two heap slots swap places without their
			// blocks learning about it.
			name: "stale-heap-index",
			corrupt: func(t *testing.T, m *Manager) {
				m.idle.s[1].hidx, m.idle.s[2].hidx = m.idle.s[2].hidx, m.idle.s[1].hidx
			},
			want: "missing from its heap",
		},
		{
			// Heap order: the least-recently-used block sinks to a leaf.
			name: "heap-order",
			corrupt: func(t *testing.T, m *Manager) {
				h := &m.idle
				last := h.len() - 1
				h.s[0], h.s[last] = h.s[last], h.s[0]
				h.s[0].hidx, h.s[last].hidx = 0, last
			},
			want: "heap order violated",
		},
		{
			// Live-block count: the device-resident half (prefixPages,
			// with free adjusted so page accounting still balances).
			name: "live-count-device",
			corrupt: func(t *testing.T, m *Manager) {
				m.prefixPages++
				m.free--
			},
			want: "prefix pages counter",
		},
		{
			// Live-block count: the host half.
			name:    "live-count-host",
			corrupt: func(t *testing.T, m *Manager) { m.hostPages++ },
			want:    "host pages counter",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newCorruptionManager(t)
			tc.corrupt(t, m)
			err := m.Invariant()
			if err == nil {
				t.Fatal("Invariant passed a corrupted manager")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Invariant = %q, want the %q check", err, tc.want)
			}
		})
	}
}

// TestAdmitWithPrefixSpillsLeastRecentlyUsed pins the LRU order and its
// tie-break on a small hand-built case: blocks admitted together share
// a lastUse, and among them the block created first spills first.
func TestAdmitWithPrefixSpillsLeastRecentlyUsed(t *testing.T) {
	m, err := New(Config{
		Policy:        Paged,
		Prefix:        PrefixTiered,
		PageTokens:    16,
		BytesPerToken: 1,
		CapacityBytes: 8 * 16,
		MaxSeqLen:     256,
	})
	if err != nil {
		t.Fatal(err)
	}
	// a: 3 blocks, then b: 3 blocks; both released, 2 pages free.
	for id, key := range []string{"a", "b"} {
		if _, err := m.AdmitWithPrefix(id, 48, key, 48); err != nil {
			t.Fatal(err)
		}
		if err := m.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	// Touch b again so a is the older key; then a 4-page private admit
	// needs 2 spills, which must take a's blocks 0 and 1 in chain order.
	if _, err := m.AdmitWithPrefix(2, 48, "b", 48); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(2); err != nil {
		t.Fatal(err)
	}
	res, err := m.AdmitWithPrefix(3, 64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpillOps != 2 {
		t.Fatalf("spilled %d blocks, want 2", res.SpillOps)
	}
	a := m.groups["a"].blocks
	for i, want := range []blockState{blockHost, blockHost, blockResident} {
		if a[i].state != want {
			t.Fatalf("block a/%d state %d, want %d", i, a[i].state, want)
		}
	}
	if got := m.PrefixCachedTokens("a"); got != 48 {
		t.Fatalf("key a caches %d tokens, want 48", got)
	}
	if got := m.DevicePrefixCachedTokens("a"); got != 0 {
		t.Fatalf("key a has %d device tokens, want 0", got)
	}
	if err := m.Invariant(); err != nil {
		t.Fatal(err)
	}
}
