package kvcache

import (
	"strconv"
	"testing"
)

// newBenchManager builds a paged manager sized to hold exactly `seqs`
// sequences of `tokens` tokens.
func newBenchManager(b testing.TB, seqs, tokens int) *Manager {
	b.Helper()
	m, err := New(Config{
		Policy:        Paged,
		PageTokens:    16,
		BytesPerToken: 1 << 10,
		CapacityBytes: int64(seqs) * int64(tokens) << 10,
		MaxSeqLen:     4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkEvictReloadChurn measures the eviction/reload cycle with a
// large population: half the sequences are repeatedly evicted (newest
// first) and reloaded (oldest first), the scheduler's thrash pattern
// under memory pressure.
func BenchmarkEvictReloadChurn(b *testing.B) {
	const seqs = 4096
	m := newBenchManager(b, seqs, 128)
	for id := 0; id < seqs; id++ {
		if err := m.Admit(id, 128); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		const batch = 64
		evicted := make([]int, 0, batch)
		for j := 0; j < batch; j++ {
			id, _, ok := m.EvictLast()
			if !ok {
				b.Fatal("nothing to evict")
			}
			evicted = append(evicted, id)
		}
		for range evicted {
			ids := m.Evicted()
			if len(ids) == 0 || !m.CanReload(ids[0]) {
				b.Fatal("cannot reload")
			}
			if _, err := m.Reload(ids[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStatsSnapshot measures the occupancy snapshot with a large
// resident population — the per-report (and per-iteration, for some
// drivers) stats query.
func BenchmarkStatsSnapshot(b *testing.B) {
	const seqs = 8192
	m := newBenchManager(b, seqs, 64)
	for id := 0; id < seqs; id++ {
		if err := m.Admit(id, 50); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := m.Stats()
		if st.ResidentSeqs != seqs {
			b.Fatalf("resident %d", st.ResidentSeqs)
		}
	}
}

// BenchmarkServingChurn measures the allocator under a serving-shaped
// admit/extend/release cycle.
func BenchmarkServingChurn(b *testing.B) {
	m, err := New(Config{
		Policy:        Paged,
		PageTokens:    16,
		BytesPerToken: 512 << 10,
		CapacityBytes: 64 << 30,
		MaxSeqLen:     2048,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := i % 256
		if m.Resident(id) {
			if _, err := m.Extend(id, 1); err != nil {
				if err := m.Release(id); err != nil {
					b.Fatal(err)
				}
			}
			if m.Tokens(id) > 300 {
				if err := m.Release(id); err != nil {
					b.Fatal(err)
				}
			}
			continue
		}
		if m.CanAdmit(128) {
			if err := m.Admit(id, 128); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPrefixCacheHitRate measures the steady-state shared-prefix
// hit path: admits cycling over a few warm prefix keys, so every
// AdmitWithPrefix classifies a full chain of resident blocks and only
// allocates the private tail.
func BenchmarkPrefixCacheHitRate(b *testing.B) {
	m, err := New(Config{
		Policy:        Paged,
		Prefix:        PrefixTiered,
		PageTokens:    16,
		BytesPerToken: 1 << 10,
		CapacityBytes: 64 << 20,
		MaxSeqLen:     4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	keys := [...]string{"agent", "chat", "rag", "code"}
	const prefixLen, tokens = 512, 640
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%len(keys)]
		if !m.CanAdmitWithPrefix(tokens, key, prefixLen) {
			b.Fatal("admission refused")
		}
		if _, err := m.AdmitWithPrefix(i, tokens, key, prefixLen); err != nil {
			b.Fatal(err)
		}
		if err := m.Release(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := m.Stats(); b.N > len(keys) && st.PrefixHits == 0 {
		b.Fatal("warm keys never hit the prefix cache")
	}
}

// BenchmarkPrefixSpillChurn measures the tiered prefix cache under
// spill pressure: 2048 per-conversation keys of 8 prefix blocks each
// cycle through a 4096-page device and a 1024-page host tier, so the
// device holds thousands of idle blocks and each admit's key has long
// since been dropped. Every op is one admit that recreates its 8 blocks
// and takes 2 private pages, forcing 10 LRU spills and as many host-tier
// drops, then a release that returns the blocks to the idle set.
func BenchmarkPrefixSpillChurn(b *testing.B) {
	const (
		pageTokens = 16
		devPages   = 4096
		hostPages  = 1024
		nkeys      = 2048
		prefixLen  = 8 * pageTokens
		tokens     = prefixLen + 2*pageTokens
	)
	m, err := New(Config{
		Policy:        Paged,
		Prefix:        PrefixTiered,
		PageTokens:    pageTokens,
		BytesPerToken: 1 << 10,
		CapacityBytes: devPages * pageTokens << 10,
		HostBytes:     hostPages * pageTokens << 10,
		MaxSeqLen:     4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = "conv-" + strconv.Itoa(i)
	}
	admit := func(i int) PrefixAdmit {
		res, err := m.AdmitWithPrefix(i, tokens, keys[i%nkeys], prefixLen)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Release(i); err != nil {
			b.Fatal(err)
		}
		return res
	}
	// Two warm-up passes fill the device and host tier and create every
	// chain, so the timed loop recreates tombstones in place.
	for i := 0; i < 2*nkeys; i++ {
		admit(i)
	}
	before := m.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admit(2*nkeys + i)
	}
	b.StopTimer()
	if st := m.Stats(); st.PrefixSpills-before.PrefixSpills < int64(b.N) || st.PrefixHostBlocks != hostPages {
		b.Fatalf("no spill pressure: %d spills over %d admits, %d host blocks",
			st.PrefixSpills-before.PrefixSpills, b.N, st.PrefixHostBlocks)
	}
}
