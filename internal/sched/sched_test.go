package sched

import (
	"testing"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/workload"
)

func newKV(t *testing.T, pages int) *kvcache.Manager {
	t.Helper()
	m, err := kvcache.New(kvcache.Config{
		Policy:        kvcache.Paged,
		PageTokens:    16,
		BytesPerToken: 1024,
		CapacityBytes: int64(pages) * 16 * 1024,
		MaxSeqLen:     2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func req(id, in, out int, atSec float64) workload.Request {
	return workload.Request{ID: id, InputLen: in, OutputLen: out, Arrival: simtime.AtSeconds(atSec)}
}

func newSched(t *testing.T, cfg Config, pages int, reqs ...workload.Request) *Scheduler {
	t.Helper()
	s, err := New(cfg, newKV(t, pages), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkActive: the active list holds as many states as the active
// count, and every state's KV handle is the one the manager resolves
// for its request ID, whether the sequence is resident or evicted.
func checkActive(t *testing.T, s *Scheduler) {
	t.Helper()
	n := 0
	for st := s.head; st != nil; st = st.next {
		if ref := s.kv.Ref(st.req.ID); st.kv != ref || ref == (kvcache.SeqRef{}) {
			t.Fatalf("request %d: state handle differs from kv.Ref (or the sequence is gone)", st.req.ID)
		}
		n++
	}
	if n != s.active {
		t.Fatalf("active list holds %d states, active count %d", n, s.active)
	}
}

// drain runs the scheduler to completion with a fixed iteration latency,
// returning the iteration count. It checks the active set after every
// batch formation and completion.
func drain(t *testing.T, s *Scheduler, lat simtime.Duration) int {
	t.Helper()
	iters := 0
	for {
		b, ok := s.Next()
		checkActive(t, s)
		if !ok {
			break
		}
		if err := s.Complete(b, lat); err != nil {
			t.Fatal(err)
		}
		checkActive(t, s)
		iters++
		if iters > 100000 {
			t.Fatal("scheduler does not terminate")
		}
	}
	return iters
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"orca": Orca, "iteration": Orca, "static": Static, "batch": Static} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%s)", s)
		}
	}
	if _, err := ParsePolicy("x"); err == nil {
		t.Fatal("unknown policy must fail")
	}
	if Orca.String() != "orca" || Static.String() != "static" {
		t.Fatal("strings")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}, nil, nil); err == nil {
		t.Fatal("nil kv must fail")
	}
	if _, err := New(Config{SubBatches: -1}, newKV(t, 4), nil); err == nil {
		t.Fatal("negative sub-batches must fail")
	}
	if _, err := New(Config{MaxBatch: -1}, newKV(t, 4), nil); err == nil {
		t.Fatal("negative max batch must fail")
	}
	if _, err := New(Config{}, newKV(t, 4), []workload.Request{{}}); err == nil {
		t.Fatal("invalid request must fail")
	}
}

// TestLifecycle: one request prefills then decodes to completion; the
// first iteration is the initiation phase and produces the first token.
func TestLifecycle(t *testing.T) {
	s := newSched(t, Config{}, 100, req(0, 32, 3, 0))
	b, ok := s.Next()
	if !ok || len(b.Seqs) != 1 {
		t.Fatal("first batch")
	}
	if b.Seqs[0].Phase != model.Initiation || b.Seqs[0].NewTokens != 32 || b.PromptTokens != 32 {
		t.Fatalf("prefill batch %+v", b.Seqs[0])
	}
	if err := s.Complete(b, simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Two more decode iterations finish the 3 output tokens.
	for i := 0; i < 2; i++ {
		b, ok = s.Next()
		if !ok {
			t.Fatalf("decode %d missing", i)
		}
		q := b.Seqs[0]
		if q.Phase != model.Generation || q.NewTokens != 1 {
			t.Fatalf("decode batch %+v", q)
		}
		if q.Context != 32+i {
			t.Fatalf("decode context %d, want %d", q.Context, 32+i)
		}
		if err := s.Complete(b, simtime.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Done() {
		t.Fatal("must be done")
	}
	fin := s.Finished()
	if len(fin) != 1 || fin[0].Completed != simtime.Time(3*simtime.Millisecond) {
		t.Fatalf("finished %+v", fin)
	}
	if fin[0].FirstToken != simtime.Time(simtime.Millisecond) {
		t.Fatal("ttft wrong")
	}
}

func TestClockJumpsToArrival(t *testing.T) {
	s := newSched(t, Config{}, 100, req(0, 16, 1, 5.0))
	b, ok := s.Next()
	if !ok {
		t.Fatal("no batch")
	}
	if b.Time != simtime.AtSeconds(5.0) {
		t.Fatalf("batch time %v, want 5s", b.Time)
	}
}

func TestBatchDelay(t *testing.T) {
	s := newSched(t, Config{BatchDelay: simtime.FromSeconds(1)}, 100,
		req(0, 16, 1, 0), req(1, 16, 1, 0.5))
	b, _ := s.Next()
	// The delay window lets the second request join the first batch.
	if len(b.Seqs) != 2 {
		t.Fatalf("batch size %d, want 2", len(b.Seqs))
	}
}

// TestIterationLevelScheduling: Orca admits new arrivals into an ongoing
// batch and releases finished requests immediately.
func TestIterationLevelScheduling(t *testing.T) {
	s := newSched(t, Config{Policy: Orca}, 1000,
		req(0, 16, 10, 0), req(1, 16, 10, 0.0005))
	b1, _ := s.Next() // only request 0 has arrived
	if len(b1.Seqs) != 1 {
		t.Fatalf("first batch %d", len(b1.Seqs))
	}
	s.Complete(b1, simtime.Millisecond) // clock now 1ms; request 1 arrived
	b2, _ := s.Next()
	if len(b2.Seqs) != 2 {
		t.Fatalf("orca must admit mid-flight: batch %d", len(b2.Seqs))
	}
}

// TestStaticScheduling: the static policy runs the first batch to
// completion before admitting request 1.
func TestStaticScheduling(t *testing.T) {
	s := newSched(t, Config{Policy: Static}, 1000,
		req(0, 16, 5, 0), req(1, 16, 5, 0.0005))
	sizes := []int{}
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		sizes = append(sizes, len(b.Seqs))
		s.Complete(b, simtime.Millisecond)
	}
	// 5 iterations of request 0 alone, then 5 of request 1 alone.
	if len(sizes) != 10 {
		t.Fatalf("iterations %d: %v", len(sizes), sizes)
	}
	for _, n := range sizes {
		if n != 1 {
			t.Fatalf("static batches must not mix: %v", sizes)
		}
	}
}

func TestMaxBatch(t *testing.T) {
	reqs := make([]workload.Request, 8)
	for i := range reqs {
		reqs[i] = req(i, 16, 2, 0)
	}
	s := newSched(t, Config{MaxBatch: 3}, 1000, reqs...)
	b, _ := s.Next()
	if len(b.Seqs) != 3 {
		t.Fatalf("max batch violated: %d", len(b.Seqs))
	}
	if drain(t, s, simtime.Millisecond) == 0 {
		t.Fatal("must finish")
	}
	if len(s.Finished()) != 8 {
		t.Fatalf("finished %d", len(s.Finished()))
	}
}

// TestEvictionUnderPressure: with tiny KV memory, long-running sequences
// force evictions and later reloads, and everything still completes.
func TestEvictionUnderPressure(t *testing.T) {
	// 12 pages = 192 tokens of KV. Three requests of 64+40 tokens each
	// cannot all stay resident.
	s := newSched(t, Config{}, 12, req(0, 64, 40, 0), req(1, 64, 40, 0), req(2, 64, 40, 0))
	var evictions, reloads int
	iters := 0
	for {
		b, ok := s.Next()
		checkActive(t, s)
		if !ok {
			break
		}
		for _, op := range b.PageOps {
			if op.Load {
				reloads++
			} else {
				evictions++
			}
		}
		if err := s.Complete(b, simtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		checkActive(t, s)
		if iters++; iters > 10000 {
			t.Fatal("no progress under memory pressure")
		}
	}
	if len(s.Finished()) != 3 {
		t.Fatalf("finished %d of 3", len(s.Finished()))
	}
	if evictions == 0 || reloads == 0 {
		t.Fatalf("expected paging activity, got %d evictions %d reloads", evictions, reloads)
	}
}

func TestSubBatchPartition(t *testing.T) {
	reqs := make([]workload.Request, 6)
	for i := range reqs {
		reqs[i] = req(i, 16*(i+1), 2, 0)
	}
	s := newSched(t, Config{SubBatches: 2}, 1000, reqs...)
	b, _ := s.Next()
	counts := map[int]int{}
	load := map[int]int{}
	for i, q := range b.Seqs {
		sb := b.SubBatch[i]
		counts[sb]++
		load[sb] += q.NewTokens
	}
	if len(counts) != 2 {
		t.Fatalf("sub-batches %v", counts)
	}
	// LPT balance: loads within 40% of each other for this spread.
	if l0, l1 := float64(load[0]), float64(load[1]); l0/l1 > 1.4 || l1/l0 > 1.4 {
		t.Fatalf("unbalanced sub-batches: %v", load)
	}
}

func TestCompleteErrors(t *testing.T) {
	s := newSched(t, Config{}, 100, req(0, 16, 2, 0))
	if err := s.Complete(nil, 0); err == nil {
		t.Fatal("nil batch must fail")
	}
	b, _ := s.Next()
	if err := s.Complete(b, -1); err == nil {
		t.Fatal("negative latency must fail")
	}
}

func TestClockMonotonic(t *testing.T) {
	reqs := make([]workload.Request, 5)
	for i := range reqs {
		reqs[i] = req(i, 32, 5, float64(i)*0.3)
	}
	s := newSched(t, Config{}, 1000, reqs...)
	prev := simtime.Time(0)
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		if b.Time < prev {
			t.Fatal("clock moved backwards")
		}
		s.Complete(b, 2*simtime.Millisecond)
		prev = s.Clock()
	}
	if s.Iterations() == 0 {
		t.Fatal("no iterations")
	}
}

// TestThroughputAccounting: prompt tokens and decode sequence counts in
// the batch match its composition.
func TestThroughputAccounting(t *testing.T) {
	s := newSched(t, Config{}, 1000, req(0, 50, 3, 0), req(1, 70, 3, 0))
	b, _ := s.Next()
	if b.PromptTokens != 120 || b.DecodeSeqs != 0 {
		t.Fatalf("prefill accounting %d/%d", b.PromptTokens, b.DecodeSeqs)
	}
	s.Complete(b, simtime.Millisecond)
	b, _ = s.Next()
	if b.PromptTokens != 0 || b.DecodeSeqs != 2 {
		t.Fatalf("decode accounting %d/%d", b.PromptTokens, b.DecodeSeqs)
	}
}

// TestSkipPrefill: the artifact's gen flag — requests enter directly in
// the generation phase; no initiation iterations appear.
func TestSkipPrefill(t *testing.T) {
	s := newSched(t, Config{SkipPrefill: true}, 1000, req(0, 64, 4, 0), req(1, 32, 4, 0))
	iters := 0
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		if b.PromptTokens != 0 {
			t.Fatalf("gen-only run scheduled prompt work: %d tokens", b.PromptTokens)
		}
		for _, q := range b.Seqs {
			if q.Phase != model.Generation {
				t.Fatal("gen-only run emitted initiation phase")
			}
		}
		if err := s.Complete(b, simtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if iters++; iters > 100 {
			t.Fatal("runaway")
		}
	}
	if len(s.Finished()) != 2 {
		t.Fatalf("finished %d", len(s.Finished()))
	}
}
