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
	p.latency = total.total + net
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

// TestPricingMatchesUncached: on random decode, prefill, chunked-prefill,
// mixed and paging batches, the cached pricing path — on first sight and
// again on the same backend, and on a fresh backend — matches an
// uncached recomputation bit for bit. It also checks the packed cache
// layout directly: the base entry under totalNew<<32|nseqs holds the
// batch's operator and collective cost, and each attention entry under
// newTokens<<32|context holds that sequence's per-block triple, so a
// cache that drops a component or mislabels its key fails here even
// when the latency happens to agree. Hit and miss counts follow the
// distinct keys seen.
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

				e, ok := cached.base[uint64(totalNew)<<32|uint64(len(batch.Seqs))]
				if !ok || e.ops != oracle.ops || e.net != oracle.net {
					t.Fatalf("trial %d: base entry for (%d new, %d seqs) = %+v (present %v), want ops %+v net %v",
						trial, totalNew, len(batch.Seqs), e, ok, oracle.ops, oracle.net)
				}
				for i, q := range batch.Seqs {
					c, ok := cached.attn[uint64(q.NewTokens)<<32|uint64(q.TotalLen())]
					if !ok || c != oracle.attn[i] {
						t.Fatalf("trial %d: attention entry for (%d new, context %d) = %+v (present %v), want %+v",
							trial, q.NewTokens, q.TotalLen(), c, ok, oracle.attn[i])
					}
				}
			}
			if got := cached.Stats(); got != want {
				t.Fatalf("cache stats %+v, want %+v", got, want)
			}
		})
	}
}
