package roofline

import (
	"math/rand/v2"
	"testing"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// uncachedPricing is the oracle's decomposition of one iteration.
type uncachedPricing struct {
	latency   simtime.Duration
	breakdown perfmodel.Breakdown
	ops       cost             // embed + Layers x non-attention ops + LM head
	net       simtime.Duration // collectives, without paging
	attn      []cost           // per sequence, one block's attention triple
}

// priceUncached recomputes an iteration's cost without the backend's
// caches: it builds the whole iteration workload, attention included,
// and places every emitted operator on the roofline.
func priceUncached(t *testing.T, b *Backend, batch *sched.Batch) uncachedPricing {
	t.Helper()
	it, err := model.BuildIteration(b.cfg.Model, batch.Seqs, b.cfg.Topo.TP)
	if err != nil {
		t.Fatal(err)
	}
	var p uncachedPricing
	var perLayer, attnLayer cost
	for _, op := range it.Block {
		if !op.Kind.IsAttention() {
			perLayer.add(b.opCost(op))
			continue
		}
		attnLayer.add(b.opCost(op))
		if op.Kind == model.OpScore {
			p.attn = append(p.attn, cost{})
		}
		p.attn[len(p.attn)-1].add(b.opCost(op))
	}
	if len(p.attn) != len(batch.Seqs) {
		t.Fatalf("builder emitted %d attention triples for %d sequences", len(p.attn), len(batch.Seqs))
	}
	p.ops = perLayer.times(it.Layers)
	p.ops.add(b.opCost(it.Embed))
	p.ops.add(b.opCost(it.Head))
	p.net = b.networkCost(len(batch.Seqs), it.TotalNewTokens)

	total := p.ops
	total.add(attnLayer.times(it.Layers))
	net := p.net + b.pagingCost(batch.PageOps)
	p.latency = total.total() + net
	p.breakdown = perfmodel.Breakdown{Compute: total.compute, Memory: total.memory, Network: net}
	return p
}

// randomPricingBatch draws one batch of 1–64 sequences of the given
// kind within maxLen tokens per sequence.
func randomPricingBatch(rng *rand.Rand, kind string, maxLen int) *sched.Batch {
	n := 1 + rng.IntN(64)
	seqs := make([]model.Seq, n)
	for i := range seqs {
		k := kind
		if k == "mixed" || k == "paging" {
			k = []string{"decode", "prefill", "chunked"}[rng.IntN(3)]
		}
		q := model.Seq{ReqID: 1000 + i}
		switch k {
		case "decode":
			// A narrow context range makes repeated (tokens, context)
			// pairs, so later sequences hit the attention cache.
			q.NewTokens, q.Context, q.Phase = 1, 1+rng.IntN(48), model.Generation
		case "prefill":
			q.NewTokens, q.Phase = 1+rng.IntN(maxLen/4), model.Initiation
		case "chunked":
			q.NewTokens, q.Context, q.Phase = 1+rng.IntN(64), 1+rng.IntN(maxLen/2), model.Initiation
		}
		seqs[i] = q
	}
	batch := &sched.Batch{Seqs: seqs}
	if kind == "paging" {
		for range 1 + rng.IntN(3) {
			batch.PageOps = append(batch.PageOps, sched.PageOp{
				ReqID: 1000 + rng.IntN(n), Bytes: int64(1+rng.IntN(64)) << 14, Load: rng.IntN(2) == 0,
			})
		}
	}
	return batch
}

// cachedBase reads the base entry of a (totalNew, nseqs) batch shape
// from the table that holds it: the dense decode table by sequence
// count for pure-decode shapes, the packed-key map otherwise.
func (b *Backend) cachedBase(totalNew, nseqs int) (baseEntry, bool) {
	if totalNew == nseqs {
		e := b.decodeBase.at(nseqs)
		if e == nil || !e.ops.priced() {
			return baseEntry{}, false
		}
		return *e, true
	}
	e, ok := b.base[uint64(totalNew)<<32|uint64(nseqs)]
	return e, ok
}

// cachedAttn reads the attention entry of (newTokens, context) from the
// table that holds it: the dense decode table by context for one new
// token, the packed-key map otherwise.
func (b *Backend) cachedAttn(newTokens, ctx int) (cost, bool) {
	if newTokens == 1 {
		c := b.decodeAttn.at(ctx)
		if c == nil || !c.priced() {
			return cost{}, false
		}
		return *c, true
	}
	c, ok := b.attn[uint64(newTokens)<<32|uint64(ctx)]
	return c, ok
}

// checkDenseTable: a dense decode table has allocated exactly the chunks
// holding a seen index, and within them priced exactly the seen indices.
func checkDenseTable[T any](t *testing.T, name string, tab *denseTable[T], seen map[int]bool, priced func(*T) bool) {
	t.Helper()
	want := map[int]bool{}
	for i := range seen {
		want[i>>denseShift] = true
	}
	for c, ch := range tab.chunks {
		if (ch != nil) != want[c] {
			t.Fatalf("%s table: chunk %d (indices %d..%d) allocated %v, want %v",
				name, c, c*denseChunk, (c+1)*denseChunk-1, ch != nil, want[c])
		}
		delete(want, c)
		if ch == nil {
			continue
		}
		for k := range ch {
			if i := c*denseChunk + k; priced(&ch[k]) != seen[i] {
				t.Fatalf("%s table: entry %d priced %v, seen %v", name, i, priced(&ch[k]), seen[i])
			}
		}
	}
	if len(want) > 0 {
		t.Fatalf("%s table: %d chunks holding seen indices are missing", name, len(want))
	}
}

// TestPricingMatchesUncached: on random decode, prefill, chunked-prefill,
// mixed and paging batches, the cached pricing path — on first sight and
// again on the same backend, and on a fresh backend — matches an
// uncached recomputation bit for bit. It also checks the cache layout
// directly, through lookups that read whichever table holds a key: the
// base entry of (totalNew, nseqs) holds the batch's operator and
// collective cost, and the attention entry of (newTokens, context) that
// sequence's per-block triple, so a cache that drops a component or
// mislabels its key fails here even when the latency happens to agree.
// Decode shapes live only in the dense tables, whose chunks exist only
// for the count ranges seen. Hit and miss counts follow the distinct
// keys seen.
func TestPricingMatchesUncached(t *testing.T) {
	for _, tc := range []struct {
		name string
		par  network.Parallelism
		npus int
	}{
		{"tp2", network.Tensor, 2},
		{"pp4", network.Pipeline, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, 1)
			topo, err := network.Build(tc.par, tc.npus, 0, config.DefaultLink(), config.DefaultLink())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Topo = topo
			hw := testHardware(t, "a100")
			cached, err := New(cfg, hw)
			if err != nil {
				t.Fatal(err)
			}
			type pair struct{ hi, lo int }
			seenBase, seenAttn := map[pair]bool{}, map[pair]bool{}
			var want Stats
			rng := rand.New(rand.NewPCG(19, uint64(tc.npus)))
			kinds := []string{"decode", "prefill", "chunked", "mixed", "paging"}
			for trial := range 400 {
				batch := randomPricingBatch(rng, kinds[trial%len(kinds)], cfg.Model.MaxSeqLen)
				oracle := priceUncached(t, cached, batch)

				check := func(label string, b *Backend) {
					t.Helper()
					lat, bd, err := b.IterationLatency(batch)
					if err != nil {
						t.Fatal(err)
					}
					if lat != oracle.latency || bd != oracle.breakdown {
						t.Fatalf("trial %d (%s): latency %v %+v, uncached %v %+v",
							trial, label, lat, bd, oracle.latency, oracle.breakdown)
					}
				}
				totalNew := 0
				for _, q := range batch.Seqs {
					totalNew += q.NewTokens
				}
				for pass := range 2 {
					want.Iterations++
					if k := (pair{totalNew, len(batch.Seqs)}); seenBase[k] {
						want.BaseHits++
					} else {
						seenBase[k] = true
						want.BaseMisses++
					}
					for _, q := range batch.Seqs {
						if k := (pair{q.NewTokens, q.TotalLen()}); seenAttn[k] {
							want.AttnHits++
						} else {
							seenAttn[k] = true
							want.AttnMisses++
						}
					}
					check([]string{"first", "repeat"}[pass], cached)
				}
				fresh, err := New(cfg, hw)
				if err != nil {
					t.Fatal(err)
				}
				check("fresh", fresh)

				e, ok := cached.cachedBase(totalNew, len(batch.Seqs))
				if !ok || e.ops != oracle.ops || e.net != oracle.net {
					t.Fatalf("trial %d: base entry for (%d new, %d seqs) = %+v (present %v), want ops %+v net %v",
						trial, totalNew, len(batch.Seqs), e, ok, oracle.ops, oracle.net)
				}
				for i, q := range batch.Seqs {
					c, ok := cached.cachedAttn(q.NewTokens, q.TotalLen())
					if !ok || c != oracle.attn[i] {
						t.Fatalf("trial %d: attention entry for (%d new, context %d) = %+v (present %v), want %+v",
							trial, q.NewTokens, q.TotalLen(), c, ok, oracle.attn[i])
					}
				}
			}
			if got := cached.Stats(); got != want {
				t.Fatalf("cache stats %+v, want %+v", got, want)
			}
			decodeSeqs, decodeCtx := map[int]bool{}, map[int]bool{}
			for k := range seenBase {
				if k.hi == k.lo {
					decodeSeqs[k.lo] = true
				}
			}
			for k := range seenAttn {
				if k.hi == 1 {
					decodeCtx[k.lo] = true
				}
			}
			for key := range cached.base {
				if key>>32 == key&(1<<32-1) {
					t.Fatalf("pure-decode base shape %d in the packed-key map", key&(1<<32-1))
				}
			}
			for key := range cached.attn {
				if key>>32 == 1 {
					t.Fatalf("decode attention context %d in the packed-key map", key&(1<<32-1))
				}
			}
			checkDenseTable(t, "decode base", &cached.decodeBase, decodeSeqs,
				func(e *baseEntry) bool { return e.ops.priced() })
			checkDenseTable(t, "decode attention", &cached.decodeAttn, decodeCtx,
				func(c *cost) bool { return c.priced() })
		})
	}
}

// TestDecodeTableChunks: decode traffic in two context ranges and at two
// batch widths allocates the dense-table chunks of those ranges only,
// and prefill shapes allocate none.
func TestDecodeTableChunks(t *testing.T) {
	b := newBackend(t, 2, "rtx3090")
	decode := func(n, ctx int) *sched.Batch {
		seqs := make([]model.Seq, n)
		for i := range seqs {
			seqs[i] = model.Seq{ReqID: i, NewTokens: 1, Context: ctx + i, Phase: model.Generation}
		}
		return &sched.Batch{Seqs: seqs}
	}
	prefill := &sched.Batch{Seqs: []model.Seq{{ReqID: 0, NewTokens: 700, Phase: model.Initiation}}}
	for _, batch := range []*sched.Batch{prefill, decode(3, 10), decode(130, 300), decode(3, 10), prefill} {
		if _, _, err := b.IterationLatency(batch); err != nil {
			t.Fatal(err)
		}
	}
	seqs := map[int]bool{3: true, 130: true}
	ctxs := map[int]bool{}
	for i := range 3 {
		ctxs[10+i+1] = true
	}
	for i := range 130 {
		ctxs[300+i+1] = true
	}
	checkDenseTable(t, "decode base", &b.decodeBase, seqs,
		func(e *baseEntry) bool { return e.ops.priced() })
	checkDenseTable(t, "decode attention", &b.decodeAttn, ctxs,
		func(c *cost) bool { return c.priced() })
	// Contexts 11..13 and 301..430 span chunks 0 and 4..6; 1..3 stay
	// nil. Widths 3 and 130 span chunks 0 and 2.
	if n := len(b.decodeAttn.chunks); n != 7 || b.decodeAttn.chunks[1] != nil || b.decodeAttn.chunks[3] != nil {
		t.Fatalf("decode attention table has %d chunks, want 7 with 1..3 untouched", n)
	}
	if n := len(b.decodeBase.chunks); n != 3 || b.decodeBase.chunks[1] != nil {
		t.Fatalf("decode base table has %d chunks, want 3 with 1 untouched", n)
	}
	if st := b.Stats(); st.BaseMisses != 3 || st.BaseHits != 2 || st.AttnMisses != 134 || st.AttnHits != 4 {
		t.Fatalf("cache stats %+v", st)
	}
}
