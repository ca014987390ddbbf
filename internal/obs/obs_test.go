package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func sec(s float64) simtime.Time { return simtime.AtSeconds(s) }

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	// Every method must be callable on a nil recorder without panicking.
	r.Admit(0, 0, "c", 0, sec(1), 0)
	r.FirstToken(0, 0, sec(1))
	r.Finish(0, 0, sec(2))
	r.Reject(-1, 0, "c", sec(1), RejectAdmission)
	r.Iteration(0, sec(1), simtime.Second, 4, 128)
	r.PrefillChunk(0, 0, sec(1), sec(2), 256)
	r.KVOp(0, 0, sec(1), 4096, EvKVEvict)
	r.Route(sec(1), 0, "c", "p", 10, 0, []Candidate{{Replica: 0}}, 0, 0, false)
	r.Admission(sec(1), 0, "c", "p", true, RejectNone)
	r.Scale(sec(1), "p", 1, 3, 2)
	r.Fleet(sec(1), "fail", 2)
	r.Outcome(0, simtime.Second, simtime.Millisecond)
	r.OutcomeRejected(0)
	if r.EventCount() != 0 || r.DecisionCount() != 0 {
		t.Fatal("nil recorder must count nothing")
	}
	if r.Spans() || r.Full() {
		t.Fatal("nil recorder captures nothing")
	}
	if s := r.FinalizeRegret(func(int) float64 { return 1 }, 1); s != nil {
		t.Fatalf("nil recorder regret %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil trace %q", buf.String())
	}
	buf.Reset()
	if err := r.WriteDecisionsTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Fatalf("nil decisions TSV must be header-only, got %q", buf.String())
	}
}

func TestDetailGating(t *testing.T) {
	r := New(Config{Detail: DetailDecisions})
	if r.Spans() || r.Full() {
		t.Fatal("decisions detail must not capture spans")
	}
	r.Admit(0, 0, "c", 0, sec(1), 0)
	r.Iteration(0, sec(1), simtime.Second, 4, 128)
	if r.EventCount() != 0 {
		t.Fatalf("events captured at decisions detail: %d", r.EventCount())
	}
	r.Admission(sec(1), 0, "c", "p", true, RejectNone)
	if r.DecisionCount() != 1 {
		t.Fatalf("decisions %d", r.DecisionCount())
	}

	r = New(Config{Detail: DetailSpans})
	if !r.Spans() || r.Full() {
		t.Fatal("spans detail: spans on, full off")
	}
	r.Admit(0, 0, "c", 0, sec(1), 0)
	r.Iteration(0, sec(1), simtime.Second, 4, 128) // full-only, dropped
	if r.EventCount() != 1 {
		t.Fatalf("span events %d", r.EventCount())
	}

	r = New(Config{Detail: DetailFull})
	r.Iteration(0, sec(1), simtime.Second, 4, 128)
	if r.EventCount() != 1 {
		t.Fatal("full detail must capture iterations")
	}
}

func TestRingWrap(t *testing.T) {
	r := New(Config{EventCap: 4, DecisionCap: 4})
	for i := 0; i < 10; i++ {
		r.FirstToken(0, i, sec(float64(i)))
	}
	if r.EventCount() != 10 {
		t.Fatalf("event count %d", r.EventCount())
	}
	var got []int
	r.eachEvent(func(e *Event) { got = append(got, int(e.Req)) })
	if len(got) != 4 {
		t.Fatalf("retained %d events", len(got))
	}
	// Oldest to newest: the last 4 pushed.
	for i, want := range []int{6, 7, 8, 9} {
		if got[i] != want {
			t.Fatalf("ring order %v", got)
		}
	}

	for i := 0; i < 7; i++ {
		r.Admission(sec(float64(i)), i, "c", "p", true, RejectNone)
	}
	var dec []int
	r.eachDecision(func(d *Decision) { dec = append(dec, int(d.Req)) })
	if len(dec) != 4 || dec[0] != 3 || dec[3] != 6 {
		t.Fatalf("decision ring %v", dec)
	}

	// Across chunk boundaries: capacities below, at and off a multiple
	// of the chunk size, written short of, up to and past capacity.
	for _, capacity := range []int{ringChunk - 1, ringChunk, 2*ringChunk + 5} {
		for _, writes := range []int{ringChunk / 2, ringChunk + 3, capacity, 3*capacity + 7} {
			r := New(Config{EventCap: capacity, DecisionCap: capacity})
			for i := 0; i < writes; i++ {
				r.FirstToken(0, i, sec(float64(i)))
				r.Admission(sec(float64(i)), i, "c", "p", true, RejectNone)
			}
			held := min(writes, capacity)
			next := writes - held
			r.eachEvent(func(e *Event) {
				if int(e.Req) != next {
					t.Fatalf("cap %d, %d writes: event %d where %d was due", capacity, writes, e.Req, next)
				}
				next++
			})
			if next != writes {
				t.Fatalf("cap %d, %d writes: visited events up to %d", capacity, writes, next)
			}
			next = writes - held
			r.eachDecision(func(d *Decision) {
				if int(d.Req) != next {
					t.Fatalf("cap %d, %d writes: decision %d where %d was due", capacity, writes, d.Req, next)
				}
				next++
			})
			if next != writes {
				t.Fatalf("cap %d, %d writes: visited decisions up to %d", capacity, writes, next)
			}
			// Chunks are allocated as they are first written, each no
			// larger than the chunk size, and cover the slots used.
			checkChunks(t, "event", chunkLens(r.events.chunks), held, capacity)
			checkChunks(t, "decision", chunkLens(r.decisions.chunks), held, capacity)
		}
	}
}

func chunkLens[T any](chunks [][]T) []int {
	lens := make([]int, len(chunks))
	for i, c := range chunks {
		lens[i] = len(c)
	}
	return lens
}

// checkChunks: a ring of capacity slots with held of them written has
// allocated exactly the chunks those slots fall in.
func checkChunks(t *testing.T, name string, lens []int, held, capacity int) {
	t.Helper()
	total := 0
	for i, n := range lens {
		if n > 0 && n != min(ringChunk, capacity-i*ringChunk) {
			t.Fatalf("cap %d: %s chunk %d holds %d slots", capacity, name, i, n)
		}
		total += n
	}
	if want := min((held+ringChunk-1)/ringChunk*ringChunk, capacity); total != want {
		t.Fatalf("cap %d, %d held: %s chunks hold %d slots, want %d", capacity, held, name, total, want)
	}
}

// routeCands builds a 3-replica candidate set with queued tokens 100,
// 30, 60 and prefix coverage 0, 0, 50.
func routeCands() []Candidate {
	return []Candidate{
		{Replica: 0, QueuedTokens: 100},
		{Replica: 1, QueuedTokens: 30},
		{Replica: 2, QueuedTokens: 60, PrefixTokens: 50},
	}
}

func TestRouteRegret(t *testing.T) {
	r := New(Config{TopK: 2})
	// Request: 40 prompt tokens, all 40 a shared prefix (the 50-token
	// replica coverage clamps to it). Uncovered prefix tokens count
	// twice — prefill compute plus the duplicated-footprint
	// displacement. Costs: r0=100+40+40=180, r1=30+40+40=110,
	// r2=60+0+0=60. Best is replica 2; choosing replica 0 regrets 120.
	r.Route(sec(1), 7, "agent", "least-loaded", 40, 40, routeCands(), 0, 0, false)
	if r.DecisionCount() != 1 {
		t.Fatal("route must record a decision")
	}
	var d Decision
	r.eachDecision(func(x *Decision) { d = *x })
	if d.Kind != DecisionRoute || d.Chosen != 0 || d.Best != 2 {
		t.Fatalf("decision %+v", d)
	}
	if d.Regret != 120 {
		t.Fatalf("regret %d", d.Regret)
	}
	// Snapshot: chosen first, then the cheapest alternatives in cost
	// order (replica 2 cost 60, replica 1 cost 110).
	if d.NCand != 3 || d.Cand[0].Replica != 0 || d.Cand[1].Replica != 2 || d.Cand[2].Replica != 1 {
		t.Fatalf("candidates %+v", d.Cand[:d.NCand])
	}

	// Prefix coverage clamps at the request's actual prefix length.
	r2 := New(Config{})
	r2.Route(sec(1), 8, "agent", "least-loaded", 40, 10, routeCands(), 1, 0, false)
	var d2 Decision
	r2.eachDecision(func(x *Decision) { d2 = *x })
	// Costs: r0=100+40+10=150, r1=30+40+10=80, r2=60+30+0=90 -> best is
	// replica 1, chosen.
	if d2.Best != 1 || d2.Regret != 0 {
		t.Fatalf("clamped-prefix decision %+v", d2)
	}
}

func TestFinalizeRegret(t *testing.T) {
	r := New(Config{})
	// Decision 1: regret 120 tokens on replica 0 (rate 100 t/s -> 1.2 s).
	r.Route(sec(1), 1, "c", "least-loaded", 40, 40, routeCands(), 0, 0, false)
	r.Outcome(1, 2*simtime.Second, 100*simtime.Millisecond)
	// Decision 2: zero regret (chose the best replica).
	r.Route(sec(2), 2, "c", "least-loaded", 40, 40, routeCands(), 2, 0, false)
	r.Outcome(2, 1*simtime.Second, 50*simtime.Millisecond)
	// Decision 3: regret, but the request was ultimately rejected — its
	// latency must not pollute the attribution.
	r.Route(sec(3), 3, "c", "least-loaded", 40, 40, routeCands(), 0, 0, false)
	r.OutcomeRejected(3)

	s := r.FinalizeRegret(func(rep int) float64 {
		if rep == 0 {
			return 100
		}
		return 50
	}, 75)
	if s == nil || s.Policy != "least-loaded" || s.Decisions != 3 || s.Regretful != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.TotalRegretTokens != 240 {
		t.Fatalf("regret tokens %d", s.TotalRegretTokens)
	}
	if s.TotalRegretSec != 2.4 || s.MaxRegretSec != 1.2 {
		t.Fatalf("regret secs %+v", s)
	}
	if s.CompletedZero != 1 || s.CompletedRegretful != 1 {
		t.Fatalf("completion split %+v", s)
	}
	if s.MeanTTFTRegretSec != 2 || s.MeanTTFTZeroSec != 1 {
		t.Fatalf("ttft split %+v", s)
	}
	if s.MeanTPOTRegretSec != 0.1 || s.MeanTPOTZeroSec != 0.05 {
		t.Fatalf("tpot split %+v", s)
	}
}

func TestRequeueKeepsLatestRoute(t *testing.T) {
	r := New(Config{})
	// First placement regrets 80; the requeue lands on the best replica.
	r.Route(sec(1), 1, "c", "p", 40, 40, routeCands(), 0, 0, false)
	r.Route(sec(2), 1, "c", "p", 40, 40, routeCands(), 2, 0, false)
	r.Outcome(1, simtime.Second, simtime.Millisecond)
	s := r.FinalizeRegret(func(int) float64 { return 100 }, 100)
	// Both decisions are scored, but the outcome attributes to the
	// latest one (zero regret).
	if s.Decisions != 2 || s.CompletedZero != 1 || s.CompletedRegretful != 0 {
		t.Fatalf("requeue summary %+v", s)
	}
	// Both route calls are counted as requeues or not per-call: the
	// second placement was flagged.
	r2 := New(Config{})
	r2.Route(sec(1), 1, "c", "p", 40, 40, routeCands(), 0, 1, false)
	r2.Route(sec(2), 1, "c", "p", 40, 40, routeCands(), 2, 1, true)
	if s2 := r2.FinalizeRegret(func(int) float64 { return 100 }, 100); s2.Requeues != 1 {
		t.Fatalf("requeue count %+v", s2)
	}
}

// TestFinalizeRegretRateFallback pins the fix for dividing regret by a
// dead replica's throughput: a chosen replica that realised no tokens
// (rate <= 0) must fall back to the fleet-mean rate instead of silently
// dropping the decision's seconds, and the fallback must be counted.
func TestFinalizeRegretRateFallback(t *testing.T) {
	r := New(Config{})
	// Regret 120 tokens on replica 0, which never produced a token.
	r.Route(sec(1), 1, "c", "least-loaded", 40, 40, routeCands(), 0, 0, false)
	r.Outcome(1, simtime.Second, simtime.Millisecond)
	s := r.FinalizeRegret(func(int) float64 { return 0 }, 60)
	if s.RateFallbacks != 1 {
		t.Fatalf("rate fallbacks %+v", s)
	}
	if s.TotalRegretSec != 2 { // 120 tokens / 60 t/s fleet mean
		t.Fatalf("fallback seconds %+v", s)
	}

	// A healthy chosen rate must not trip the fallback.
	r2 := New(Config{})
	r2.Route(sec(1), 1, "c", "least-loaded", 40, 40, routeCands(), 0, 0, false)
	r2.Outcome(1, simtime.Second, simtime.Millisecond)
	if s2 := r2.FinalizeRegret(func(int) float64 { return 100 }, 60); s2.RateFallbacks != 0 || s2.TotalRegretSec != 1.2 {
		t.Fatalf("healthy-rate summary %+v", s2)
	}

	// A dead fleet (mean <= 0 too) counts the fallback but contributes
	// no seconds — regret tokens still accumulate.
	r3 := New(Config{})
	r3.Route(sec(1), 1, "c", "least-loaded", 40, 40, routeCands(), 0, 0, false)
	r3.Outcome(1, simtime.Second, simtime.Millisecond)
	if s3 := r3.FinalizeRegret(func(int) float64 { return 0 }, 0); s3.RateFallbacks != 1 || s3.TotalRegretSec != 0 || s3.TotalRegretTokens != 120 {
		t.Fatalf("dead-fleet summary %+v", s3)
	}
}

// TestFinalizeRegretStageSplit pins the two-stage attribution used by
// disaggregated clusters: stage-1 (prefill) and stage-2 (decode) routes
// are tallied separately, with their regret tokens split per stage.
func TestFinalizeRegretStageSplit(t *testing.T) {
	r := New(Config{})
	// Stage-1 placement regrets 120; the stage-2 handoff is optimal.
	r.Route(sec(1), 1, "c", "p", 40, 40, routeCands(), 0, 1, false)
	r.Route(sec(2), 1, "c", "p", 40, 40, routeCands(), 2, 2, false)
	// A second request regrets on the decode stage instead.
	r.Route(sec(3), 2, "c", "p", 40, 40, routeCands(), 2, 1, false)
	r.Route(sec(4), 2, "c", "p", 40, 40, routeCands(), 0, 2, false)
	s := r.FinalizeRegret(func(int) float64 { return 100 }, 100)
	if s.Stage1Decisions != 2 || s.Stage2Decisions != 2 {
		t.Fatalf("stage decision split %+v", s)
	}
	if s.Stage1RegretTokens != 120 || s.Stage2RegretTokens != 120 {
		t.Fatalf("stage regret split %+v", s)
	}
	if s.Decisions != 4 || s.TotalRegretTokens != 240 {
		t.Fatalf("totals %+v", s)
	}
}

// record populates a recorder with one request's full lifecycle plus
// every decision kind, for the exporter tests.
func record(r *Recorder) {
	r.Admission(sec(0), 1, "chat", "all", true, RejectNone)
	r.Route(sec(0), 1, "chat", "least-loaded", 40, 0, routeCands(), 1, 0, false)
	r.Admit(1, 1, "chat", sec(0), sec(1), 16)
	r.PrefillChunk(1, 1, sec(1), sec(2), 256)
	r.FirstToken(1, 1, sec(2))
	r.KVOp(1, 1, sec(3), 4096, EvKVEvict)
	r.KVOp(1, 1, sec(4), 4096, EvKVReload)
	r.Iteration(1, sec(1), simtime.Second, 4, 256)
	r.Finish(1, 1, sec(5))
	r.Outcome(1, 2*simtime.Second, 100*simtime.Millisecond)
	r.Admission(sec(6), 2, "chat", "queue-cap", false, RejectAdmission)
	r.Reject(-1, 2, "chat", sec(6), RejectAdmission)
	r.Scale(sec(10), "queue-depth", 2, 5, 4)
	r.Fleet(sec(12), "fail", 1)
}

func TestExportersDeterministic(t *testing.T) {
	render := func() (string, string) {
		r := New(Config{Detail: DetailFull})
		record(r)
		var ct, dt bytes.Buffer
		if err := r.WriteChromeTrace(&ct); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteDecisionsTSV(&dt); err != nil {
			t.Fatal(err)
		}
		return ct.String(), dt.String()
	}
	c1, d1 := render()
	c2, d2 := render()
	if c1 != c2 {
		t.Fatal("chrome trace not deterministic")
	}
	if d1 != d2 {
		t.Fatal("decisions TSV not deterministic")
	}
	for _, want := range []string{
		`"displayTimeUnit"`, `"traceEvents"`, "replica 1", "cluster",
		`"req 1"`, "queue", "prefill", "decode", "reject:admission",
	} {
		if !strings.Contains(c1, want) {
			t.Errorf("chrome trace missing %q", want)
		}
	}
	for _, want := range []string{
		"time_s\tkind\tpolicy", "route\tleast-loaded", "admission\tall",
		"reject:admission", "scale\tqueue-depth", "2->4 desired=5", "fleet\tfail",
	} {
		if !strings.Contains(d1, want) {
			t.Errorf("decisions TSV missing %q", want)
		}
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	r := New(Config{Detail: DetailFull})
	record(r)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Cheap structural validation without a JSON dependency: balanced
	// braces/brackets outside strings.
	depth, inStr, esc := 0, false, false
	for _, b := range buf.Bytes() {
		switch {
		case esc:
			esc = false
		case inStr:
			if b == '\\' {
				esc = true
			} else if b == '"' {
				inStr = false
			}
		case b == '"':
			inStr = true
		case b == '{' || b == '[':
			depth++
		case b == '}' || b == ']':
			depth--
			if depth < 0 {
				t.Fatal("unbalanced trace JSON")
			}
		}
	}
	if depth != 0 || inStr {
		t.Fatalf("unterminated trace JSON (depth %d, inStr %v)", depth, inStr)
	}
}
