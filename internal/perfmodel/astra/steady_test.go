package astra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// newPair builds a backend and, beside it, a reference backend of the
// same configuration: every iteration of the reference runs in full,
// and every plan on the executor's event loop.
func newPair(t testing.TB, cfg perfmodel.Config) (fast, ref *Backend) {
	t.Helper()
	opts := Options{NPU: config.DefaultNPU(), PIM: config.DefaultPIM()}
	fast, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = New(cfg, opts); err != nil {
		t.Fatal(err)
	}
	ref.reference = true
	ref.exec.UseEventLoop()
	return fast, ref
}

// steadyPaths counts which paths the fast backend of a pair took.
type steadyPaths struct {
	repriced, skipped, paged int
}

// price prices batch on both backends of a pair and fails unless the
// latencies, errors, engine counters and block counts agree. It
// classifies the fast backend's path: repriced, and then skipped when
// conversion and execution were skipped, or paged when only the batch's
// KV paging kept it off the steady path.
func price(t testing.TB, tag string, fast, ref *Backend, batch *sched.Batch, paths *steadyPaths) (simtime.Duration, error) {
	t.Helper()
	repriced := fast.steadyStep(batch) != nil
	if !repriced && len(batch.PageOps) > 0 {
		unpaged := *batch
		unpaged.PageOps = nil
		if fast.steadyStep(&unpaged) != nil {
			paths.paged++
		}
	}
	// A skipped iteration leaves the held graph as it was; any conversion
	// rewrites every node's duration. So a marked node tells them apart.
	const mark = -7
	var saved simtime.Duration
	nodes := fast.gbuf.Nodes
	if repriced && len(nodes) > 0 {
		saved, nodes[0].Duration = nodes[0].Duration, mark
	}
	got, _, gotErr := fast.IterationLatency(batch)
	if repriced && len(nodes) > 0 && nodes[0].Duration == mark {
		nodes[0].Duration = saved
		paths.skipped++
	}
	if repriced {
		paths.repriced++
	}
	want, _, wantErr := ref.IterationLatency(batch)
	if got != want || (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: latency %v (err %v), reference %v (err %v)", tag, got, gotErr, want, wantErr)
	}
	sameCounters(t, tag, fast, ref)
	return got, gotErr
}

// sameCounters fails unless both backends report equal engine counters
// and block counts.
func sameCounters(t testing.TB, tag string, fast, ref *Backend) {
	t.Helper()
	if got, want := fast.NPUStack().Stats(), ref.NPUStack().Stats(); got != want {
		t.Fatalf("%s: NPU stats %+v, reference %+v", tag, got, want)
	}
	if fast.PIMStack() != nil {
		if got, want := fast.PIMStack().Stats(), ref.PIMStack().Stats(); got != want {
			t.Fatalf("%s: PIM stats %+v, reference %+v", tag, got, want)
		}
	}
	gs, gh := fast.BlockCounts()
	ws, wh := ref.BlockCounts()
	if gs != ws || gh != wh {
		t.Fatalf("%s: blocks %d simulated, %d shifted; reference %d, %d", tag, gs, gh, ws, wh)
	}
}

// steadyCase is one serving configuration of the differential set.
type steadyCase struct {
	cfg     perfmodel.Config
	sc      sched.Config
	policy  kvcache.Policy
	kvBytes int64
	reqs    []workload.Request
}

func (c steadyCase) String() string {
	return fmt.Sprintf("%s (%d layers, TP%d PP%d, pim %v pool %d, sub %d, selective %v, kv %v %d B)",
		c.cfg.Model.Name, c.cfg.Model.Layers, c.cfg.Topo.TP, c.cfg.Topo.Stages, c.cfg.PIMMode,
		c.cfg.Topo.PIMPool, c.sc.SubBatches, c.cfg.SelectiveBatching, c.policy, c.kvBytes)
}

// randomSteadyCase draws a small serving configuration across the axes
// the steady path meets: model shape, TP/PP layout, PIM mode (none,
// local, pool), sub-batch count, selective batching, KV policy, and a
// KV budget tight enough that paging transfers enter some batches.
func randomSteadyCase(t testing.TB, rng *rand.Rand) steadyCase {
	t.Helper()
	heads := []int{4, 8, 12}[rng.Intn(3)]
	m := model.Config{
		Name: "steady", Layers: 1 + rng.Intn(14), Hidden: 64 * heads, Heads: heads,
		FFN: 256 * heads, Vocab: 8192, MaxSeqLen: 512, DTypeBytes: 2,
	}
	var tp, pp int
	for {
		tp, pp = []int{1, 2, 4}[rng.Intn(3)], 1+rng.Intn(4)
		if heads%tp == 0 {
			break
		}
	}
	mode, groups := network.Hybrid, pp
	switch {
	case pp == 1:
		mode, groups = network.Tensor, 0
	case tp == 1:
		mode, groups = network.Pipeline, 0
	}
	topo, err := network.Build(mode, tp*pp, groups, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	c := steadyCase{
		cfg: perfmodel.Config{
			Model: m, Topo: topo,
			PIMMode:           perfmodel.PIMMode(rng.Intn(3)),
			SelectiveBatching: rng.Intn(2) == 0,
			Reuse:             perfmodel.ReuseAll(),
		},
		sc:     sched.Config{SubBatches: 1 + rng.Intn(3)},
		policy: kvcache.Policy(rng.Intn(2)),
		// Room for a few hundred tokens, so longer batches evict and
		// reload.
		kvBytes: int64(64+rng.Intn(512)) * m.KVBytesPerToken(),
	}
	if c.cfg.PIMMode == perfmodel.PIMNone {
		c.sc.SubBatches = 1 // sub-batch interleaving needs a PIM engine
	}
	if c.cfg.PIMMode == perfmodel.PIMPool {
		c.cfg.Topo.PIMPool = 1 + rng.Intn(3)
	}
	if c.reqs, err = workload.PoissonTrace(workload.Alpaca(), 6+rng.Intn(10), 200, rng.Int63()); err != nil {
		t.Fatal(err)
	}
	return c
}

// paperCase is the paper's NPU+PIM system, as the paper-npu-pim
// benchmark workload serves it: gpt3-7b on TP4 x PP2 with a PIM device
// beside each NPU, two interleaved sub-batches, and the KV budget the
// devices leave after the weights.
func paperCase(t testing.TB) steadyCase {
	t.Helper()
	topo, err := network.Build(network.Hybrid, 8, 2, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	m := model.MustLookup("gpt3-7b")
	reqs, err := workload.PoissonTrace(workload.ShareGPT(), 48, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return steadyCase{
		cfg:     perfmodel.Config{Model: m, Topo: topo, PIMMode: perfmodel.PIMLocal, Reuse: perfmodel.ReuseAll()},
		sc:      sched.Config{SubBatches: 2},
		policy:  kvcache.Paged,
		kvBytes: config.DefaultNPU().MemoryBytes*8 - m.WeightBytes(),
		reqs:    reqs,
	}
}

// run serves the case's trace through a real scheduler, pricing every
// batch on a fresh backend pair, and checks the pair agrees throughout.
func (c steadyCase) run(t *testing.T, paths *steadyPaths) {
	t.Helper()
	fast, ref := newPair(t, c.cfg)
	kv, err := kvcache.New(kvcache.Config{
		Policy:        c.policy,
		PageTokens:    16,
		BytesPerToken: c.cfg.Model.KVBytesPerToken(),
		CapacityBytes: c.kvBytes,
		MaxSeqLen:     c.cfg.Model.MaxSeqLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(c.sc, kv, c.reqs)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; ; it++ {
		batch, ok := s.Next()
		if !ok {
			break
		}
		lat, err := price(t, fmt.Sprintf("%v: iteration %d", c, it), fast, ref, batch, paths)
		if err != nil {
			t.Fatalf("%v: iteration %d: %v", c, it, err)
		}
		if err := s.Complete(batch, lat); err != nil {
			t.Fatal(err)
		}
	}
	if ref.steady != nil {
		t.Fatalf("%v: the reference backend kept a steady state", c)
	}
}

// TestSteadyDecodeMatchesReference is the steady decode path's
// differential contract: on a benchmark set of random serving
// configurations and the paper's NPU+PIM system, a backend that
// reprices steady decode steps and skips conversion and execution when
// their work repeats gives every iteration the latency a reference
// backend gives it, running every iteration in full on the event loop,
// and ends with equal engine counters and block counts.
func TestSteadyDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240521))
	var paths steadyPaths
	cases := []steadyCase{paperCase(t)}
	for range 48 {
		cases = append(cases, randomSteadyCase(t, rng))
	}
	for _, c := range cases {
		c.run(t, &paths)
	}
	t.Logf("repriced %d iterations, skipped conversion on %d, kept off by paging %d",
		paths.repriced, paths.skipped, paths.paged)
	if paths.repriced == 0 || paths.skipped == 0 || paths.paged == 0 {
		t.Fatalf("repriced %d, skipped %d, paged %d: the set must take every path", paths.repriced, paths.skipped, paths.paged)
	}
}

// TestSteadyPathNeedsBothReuses: with either reuse off the backend
// keeps no steady state, so every iteration runs in full.
func TestSteadyPathNeedsBothReuses(t *testing.T) {
	for _, reuse := range []perfmodel.ReuseOptions{
		{ModelRedundancy: true}, {ComputationReuse: true},
	} {
		cfg := testConfig(t, 2)
		cfg.Reuse = reuse
		b, err := New(cfg, Options{NPU: config.DefaultNPU()})
		if err != nil {
			t.Fatal(err)
		}
		batch := &sched.Batch{Seqs: []model.Seq{{ReqID: 0, NewTokens: 1, Context: 40, Phase: model.Generation}}}
		for range 3 {
			if b.steadyStep(batch) != nil {
				t.Fatalf("reuse %+v: steady step taken", reuse)
			}
			if _, _, err := b.IterationLatency(batch); err != nil {
				t.Fatal(err)
			}
			batch.Seqs[0].Context++
		}
		if b.steady != nil {
			t.Fatalf("reuse %+v: steady state kept", reuse)
		}
	}
}

// FuzzSteadyDecode drives a backend pair (see newPair) through a random
// batch evolution on a small model and compares their latencies,
// errors, engine counters and block counts after every step. cfg picks
// the PIM mode, tensor parallelism, selective batching and sub-batch
// count; each byte of steps changes the next batch before it is priced:
// plain decode steps, a request joining with its prefill, one taking a
// decoding request's place at its context, one recomputing its context
// as a prefill, one decoding several tokens at once, one prefilling a
// single token, one completing, KV paging, a
// request moving to another sub-batch, and a context jumping by more
// than one token, possibly past the model's length. After each step every
// request's context grows by the tokens it processed, as a scheduler's
// would, and requests past the model's length leave.
func FuzzSteadyDecode(f *testing.F) {
	f.Add(uint8(0x05), []byte{0x03, 0x03, 0, 0, 0, 0x0c, 0, 0, 0x25, 0, 0, 0x07, 0, 0x04, 0, 0})
	f.Add(uint8(0x1a), []byte{0x13, 0x23, 0x43, 0, 0, 0, 0x06, 0, 0, 0x0d, 0, 0x15, 0, 0})
	f.Add(uint8(0x0e), []byte{0x03, 0x33, 0, 0, 0x1f, 0, 0, 0x0e, 0x0e, 0, 0x2c, 0, 0})
	f.Add(uint8(0x21), []byte{0x63, 0x03, 0x03, 0, 0x05, 0, 0, 0x3f, 0, 0x1c, 0x16, 0})
	f.Add(uint8(0x12), []byte{0xfb, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0})
	f.Add(uint8(0xc5), []byte{0x63, 0x7f, 0xff, 0x31, 0x30})
	f.Add(uint8(0x00), []byte{0x0b, 0, 0, 0x0a, 0, 0x12, 0, 0})
	f.Fuzz(func(t *testing.T, cfgByte uint8, steps []byte) {
		if len(steps) > 256 {
			steps = steps[:256]
		}
		tp := 1 + int(cfgByte>>2&1)
		topo, err := network.Build(network.Tensor, tp, 0, config.DefaultLink(), config.DefaultLink())
		if err != nil {
			t.Fatal(err)
		}
		cfg := perfmodel.Config{
			Model: model.Config{
				Name: "fuzz", Layers: 3, Hidden: 256, Heads: 4, FFN: 1024,
				Vocab: 4096, MaxSeqLen: 160, DTypeBytes: 2,
			},
			Topo:              topo,
			PIMMode:           perfmodel.PIMMode(cfgByte % 3),
			SelectiveBatching: cfgByte&0x08 != 0,
			Reuse:             perfmodel.ReuseAll(),
		}
		if cfg.PIMMode == perfmodel.PIMPool {
			cfg.Topo.PIMPool = 1
		}
		nSub := 1
		if cfg.PIMMode != perfmodel.PIMNone {
			nSub = 1 + int(cfgByte>>4)%3
		}
		fast, ref := newPair(t, cfg)

		var (
			seqs  []model.Seq
			sub   []int
			pages []sched.PageOp
			next  = 0 // the next joining request's ID
			paths steadyPaths
		)
		for i, op := range steps {
			arg := int(op >> 3)
			pages = pages[:0]
			switch op & 7 {
			case 1: // another request takes a decoding one's place
				if len(seqs) > 0 {
					seqs[arg%len(seqs)].ReqID = next
					next++
				}
			case 2: // a request recomputes its context, decodes several tokens or prefills one
				if len(seqs) > 0 {
					q := &seqs[arg%len(seqs)]
					switch arg % 3 {
					case 0:
						q.Context, q.NewTokens, q.Phase = 0, q.TotalLen(), model.Initiation
					case 1:
						q.NewTokens = 2 + arg%4
					case 2:
						q.Phase = model.Initiation
					}
				}
			case 3: // a request joins with its prefill
				seqs = append(seqs, model.Seq{ReqID: next, NewTokens: 1 + arg%48, Phase: model.Initiation})
				sub = append(sub, next%nSub)
				next++
			case 4: // a request completes
				if len(seqs) > 0 {
					k := arg % len(seqs)
					seqs, sub = append(seqs[:k], seqs[k+1:]...), append(sub[:k], sub[k+1:]...)
				}
			case 5: // KV paging
				pages = append(pages, sched.PageOp{ReqID: arg, Bytes: int64(1+arg) << 12, Load: arg&1 == 0})
			case 6: // a request moves to another sub-batch
				if len(seqs) > 0 {
					k := arg % len(seqs)
					sub[k] = (sub[k] + 1) % nSub
				}
			case 7: // a context jumps
				if len(seqs) > 0 {
					seqs[arg%len(seqs)].Context += 2 + arg
				}
			}
			if len(seqs) == 0 {
				continue
			}
			batch := &sched.Batch{Seqs: seqs, PageOps: pages}
			if nSub > 1 {
				batch.SubBatch = sub
			}
			if _, err := price(t, fmt.Sprintf("step %d", i), fast, ref, batch, &paths); err != nil {
				// Both failed alike (a request past the model's length):
				// drop the requests that cannot run.
				seqs, sub = dropTooLong(seqs, sub, cfg.Model.MaxSeqLen)
				continue
			}
			for k := range seqs {
				q := &seqs[k]
				q.Context += q.NewTokens
				q.NewTokens, q.Phase = 1, model.Generation
			}
			seqs, sub = dropTooLong(seqs, sub, cfg.Model.MaxSeqLen)
		}
	})
}

// dropTooLong removes the sequences whose next step would pass maxLen.
func dropTooLong(seqs []model.Seq, sub []int, maxLen int) ([]model.Seq, []int) {
	n := 0
	for k, q := range seqs {
		if q.TotalLen() <= maxLen {
			seqs[n], sub[n] = q, sub[k]
			n++
		}
	}
	return seqs[:n], sub[:n]
}
