package sched

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// partitionByID is the map-based sub-batch partitioner the positional
// one replaced, kept as its oracle: LPT assignment over a stable sort of
// the sequences by descending work, keyed by request ID.
func partitionByID(seqs []model.Seq, n int) map[int]int {
	out := make(map[int]int, len(seqs))
	if n <= 1 {
		for _, q := range seqs {
			out[q.ReqID] = 0
		}
		return out
	}
	order := append([]model.Seq(nil), seqs...)
	slices.SortStableFunc(order, func(a, b model.Seq) int {
		return cmp.Compare(b.NewTokens*1024+b.Context, a.NewTokens*1024+a.Context)
	})
	load := make([]int, n)
	for _, q := range order {
		best := 0
		for i := 1; i < n; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		load[best] += q.NewTokens*1024 + q.Context
		out[q.ReqID] = best
	}
	return out
}

// TestPartitionMatchesOracle: on random batches with 0–4 sub-batches,
// shuffled request IDs and deliberate ties in work, the positional
// partition assigns every sequence the sub-batch the ID-keyed oracle
// does. Batches formed by Next are checked the same way.
func TestPartitionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 4))
	for trial := range 2000 {
		n := rng.IntN(5)
		seqs := make([]model.Seq, 1+rng.IntN(40))
		ids := rng.Perm(len(seqs) * 3)
		for i := range seqs {
			// Few distinct (tokens, context) values, so equal work is
			// common and the stable tie order matters.
			seqs[i] = model.Seq{
				ReqID:     ids[i],
				NewTokens: []int{1, 1, 1, 4, 16}[rng.IntN(5)],
				Context:   []int{0, 7, 7, 100}[rng.IntN(4)],
			}
		}
		s := &Scheduler{cfg: Config{SubBatches: n}}
		got := s.partition(seqs)
		want := partitionByID(seqs, n)
		// Unpartitioned batches carry no indices: all are sub-batch 0.
		if (n <= 1) != (got == nil) || (got != nil && len(got) != len(seqs)) {
			t.Fatalf("trial %d (%d sub-batches): indices %v for %d sequences", trial, n, got, len(seqs))
		}
		for i, q := range seqs {
			sb := 0
			if got != nil {
				sb = got[i]
			}
			if sb != want[q.ReqID] {
				t.Fatalf("trial %d (%d sub-batches): seq %d (req %d) in sub-batch %d, oracle %d",
					trial, n, i, q.ReqID, sb, want[q.ReqID])
			}
		}
	}

	reqs := make([]workload.Request, 24)
	for i := range reqs {
		reqs[i] = req(i, 16+16*(i%3), 1+i%5, float64(i%4)*0.001)
	}
	s := newSched(t, Config{SubBatches: 3, Policy: Chunked, ChunkTokens: 32}, 1000, reqs...)
	for iters := 0; ; iters++ {
		b, ok := s.Next()
		if !ok {
			break
		}
		want := partitionByID(b.Seqs, 3)
		for i, q := range b.Seqs {
			if b.SubBatch[i] != want[q.ReqID] {
				t.Fatalf("iteration %d: req %d in sub-batch %d, oracle %d", iters, q.ReqID, b.SubBatch[i], want[q.ReqID])
			}
		}
		if err := s.Complete(b, simtime.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Finished()) != len(reqs) {
		t.Fatalf("finished %d of %d", len(s.Finished()), len(reqs))
	}
}

// TestCompleteRejectsForeignBatch: Complete applies only the batch the
// scheduler's last Next returned, unaltered, and only once. A batch
// built by hand, one formed by another scheduler, or one whose
// sequences were changed is refused without touching the scheduler.
func TestCompleteRejectsForeignBatch(t *testing.T) {
	reqs := []workload.Request{req(0, 16, 3, 0), req(1, 32, 3, 0)}
	s := newSched(t, Config{}, 100, reqs...)
	other := newSched(t, Config{}, 100, reqs...)
	b, _ := s.Next()
	ob, _ := other.Next()

	foreign := map[string]*Batch{
		"hand-built":      {Time: b.Time, Seqs: slices.Clone(b.Seqs), SubBatch: make([]int, len(b.Seqs))},
		"other scheduler": ob,
	}
	for name, fb := range foreign {
		if err := s.Complete(fb, simtime.Millisecond); err == nil {
			t.Fatalf("%s batch accepted", name)
		}
	}
	seqs := b.Seqs
	b.Seqs = append(seqs[:len(seqs):len(seqs)], model.Seq{ReqID: 1, NewTokens: 1})
	if err := s.Complete(b, simtime.Millisecond); err == nil {
		t.Fatal("batch with an extra sequence accepted")
	}
	b.Seqs = seqs[:1]
	if err := s.Complete(b, simtime.Millisecond); err == nil {
		t.Fatal("batch with a dropped sequence accepted")
	}
	if s.Iterations() != 0 || s.Clock() != 0 {
		t.Fatalf("refused batches changed the scheduler: %d iterations, clock %v", s.Iterations(), s.Clock())
	}

	b.Seqs = seqs
	if err := s.Complete(b, simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(b, simtime.Millisecond); err == nil {
		t.Fatal("batch completed twice")
	}
	drain(t, s, simtime.Millisecond)
	if len(s.Finished()) != len(reqs) {
		t.Fatalf("finished %d of %d", len(s.Finished()), len(reqs))
	}
}

// TestMidIterationEvictionLeavesBatch: when an earlier sequence's decode
// growth evicts a later-admitted one during batch formation, the victim
// is left out of that batch — the Resident test skips it — and is
// reloaded and finished later.
func TestMidIterationEvictionLeavesBatch(t *testing.T) {
	// Four 16-token pages: each 32-token prompt takes two, so the first
	// decode step of request 0 needs a fifth page and evicts request 1.
	s := newSched(t, Config{}, 4, req(0, 32, 4, 0), req(1, 32, 4, 0))
	b, _ := s.Next()
	if len(b.Seqs) != 2 || len(b.PageOps) != 0 {
		t.Fatalf("prefill batch %v, page ops %v", b.Seqs, b.PageOps)
	}
	if err := s.Complete(b, simtime.Millisecond); err != nil {
		t.Fatal(err)
	}

	b, _ = s.Next()
	if len(b.Seqs) != 1 || b.Seqs[0].ReqID != 0 {
		t.Fatalf("decode batch %v, want request 0 alone", b.Seqs)
	}
	if len(b.PageOps) != 1 || b.PageOps[0] != (PageOp{ReqID: 1, Bytes: 32 * 1024}) {
		t.Fatalf("page ops %v, want request 1 evicted", b.PageOps)
	}
	if s.kv.Resident(1) {
		t.Fatal("request 1 still resident")
	}
	if err := s.Complete(b, simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	drain(t, s, simtime.Millisecond)
	if len(s.Finished()) != 2 {
		t.Fatalf("finished %d of 2", len(s.Finished()))
	}
}
