package obs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// keepAllFold is the keep-every-route regret fold the Recorder used to
// run: one outcome per routing decision plus a map from request to its
// latest outcome, every figure computed at finalize in route order. It
// is the reference the incremental fold is checked against.
type keepAllFold struct {
	outcomes []keepAllOutcome
	latest   map[int32]int32
}

type keepAllOutcome struct {
	chosen         int32
	regret         int64
	ttft, tpot     simtime.Duration
	stage          uint8
	requeue        bool
	done, rejected bool
}

func (k *keepAllFold) route(req int, chosen int32, regret int64, stage uint8, requeue bool) {
	if k.latest == nil {
		k.latest = make(map[int32]int32)
	}
	k.latest[int32(req)] = int32(len(k.outcomes))
	k.outcomes = append(k.outcomes, keepAllOutcome{chosen: chosen, regret: regret, stage: stage, requeue: requeue})
}

func (k *keepAllFold) outcome(req int, ttft, tpot simtime.Duration) {
	if i, ok := k.latest[int32(req)]; ok {
		o := &k.outcomes[i]
		o.ttft, o.tpot, o.done = ttft, tpot, true
	}
}

func (k *keepAllFold) rejected(req int) {
	if i, ok := k.latest[int32(req)]; ok {
		k.outcomes[i].rejected = true
	}
}

func (k *keepAllFold) finalize(policy string, rate func(int) float64, fleetMean float64) *RegretSummary {
	if len(k.outcomes) == 0 {
		return nil
	}
	s := &RegretSummary{Policy: policy, Decisions: len(k.outcomes)}
	var ttftZero, ttftReg, tpotZero, tpotReg float64
	for i := range k.outcomes {
		o := &k.outcomes[i]
		s.TotalRegretTokens += o.regret
		if o.requeue {
			s.Requeues++
		}
		switch o.stage {
		case 1:
			s.Stage1Decisions++
			s.Stage1RegretTokens += o.regret
		case 2:
			s.Stage2Decisions++
			s.Stage2RegretTokens += o.regret
		}
		var sec float64
		if o.regret > 0 {
			s.Regretful++
			v := rate(int(o.chosen))
			if v <= 0 {
				v = fleetMean
				s.RateFallbacks++
			}
			if v > 0 {
				sec = float64(o.regret) / v
			}
			s.TotalRegretSec += sec
			if sec > s.MaxRegretSec {
				s.MaxRegretSec = sec
			}
		}
		if o.done && !o.rejected {
			if o.regret > 0 {
				s.CompletedRegretful++
				ttftReg += o.ttft.Seconds()
				tpotReg += o.tpot.Seconds()
			} else {
				s.CompletedZero++
				ttftZero += o.ttft.Seconds()
				tpotZero += o.tpot.Seconds()
			}
		}
	}
	s.MeanRegretSec = s.TotalRegretSec / float64(s.Decisions)
	if s.CompletedZero > 0 {
		s.MeanTTFTZeroSec = ttftZero / float64(s.CompletedZero)
		s.MeanTPOTZeroSec = tpotZero / float64(s.CompletedZero)
	}
	if s.CompletedRegretful > 0 {
		s.MeanTTFTRegretSec = ttftReg / float64(s.CompletedRegretful)
		s.MeanTPOTRegretSec = tpotReg / float64(s.CompletedRegretful)
	}
	return s
}

// TestRegretFoldMatchesKeepAll drives the Recorder and the keep-all
// reference with the same random sequences of routes (stages 0/1/2,
// requeues, zero and positive regret), completions and rejections, as
// the cluster issues them: a request takes at most one outcome per
// route. Every integer and every regret-priced float must match
// exactly (regretful decisions are still folded in route order); the
// zero-regret latency means, now summed in completion order, to 1e-9
// relative.
func TestRegretFoldMatchesKeepAll(t *testing.T) {
	const replicas = 6
	rates := [replicas]float64{120, 0, 75.5, 310, 0, 42}
	rate := func(rep int) float64 { return rates[rep] }
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := New(Config{DecisionCap: 64})
		var ref keepAllFold
		nreq := 1 + rng.Intn(300)
		pending := make([]bool, nreq) // routed since its last outcome
		for op := rng.Intn(4 * nreq); op >= 0; op-- {
			req := rng.Intn(nreq)
			switch x := rng.Intn(10); {
			case x < 6 || !pending[req]:
				cands := make([]Candidate, 1+rng.Intn(replicas))
				for i, rep := range rng.Perm(replicas)[:len(cands)] {
					cands[i] = Candidate{
						Replica:      int32(rep),
						QueuedTokens: int64(rng.Intn(4) * 50),
						PrefixTokens: int32(rng.Intn(3) * 20),
					}
				}
				chosen := rng.Intn(len(cands))
				stage, requeue := uint8(rng.Intn(3)), rng.Intn(5) == 0
				rec.Route(sec(float64(op)), req, "c", "p", 40, 40, cands, chosen, stage, requeue)
				ref.route(req, cands[chosen].Replica, cands[chosen].Cost-minCost(cands), stage, requeue)
				pending[req] = true
			case x == 6 && rng.Intn(4) == 0:
				// An ID never routed: both folds ignore it.
				rec.Outcome(nreq+op, simtime.Second, simtime.Second)
				ref.outcome(nreq+op, simtime.Second, simtime.Second)
			case x < 9:
				ttft := simtime.Duration(rng.Int63n(int64(5 * simtime.Second)))
				tpot := simtime.Duration(rng.Int63n(int64(50 * simtime.Millisecond)))
				rec.Outcome(req, ttft, tpot)
				ref.outcome(req, ttft, tpot)
				pending[req] = false
			default:
				rec.OutcomeRejected(req)
				ref.rejected(req)
				pending[req] = false
			}
		}
		for _, mean := range []float64{90, 0} {
			got := rec.FinalizeRegret(rate, mean)
			want := ref.finalize("p", rate, mean)
			if (got == nil) != (want == nil) {
				t.Fatalf("seed %d: summary %+v, want %+v", seed, got, want)
			}
			if got == nil {
				continue
			}
			approx := func(name string, g, w float64) {
				if math.Abs(g-w) > 1e-9*math.Abs(w) {
					t.Fatalf("seed %d: %s %v, want %v", seed, name, g, w)
				}
			}
			approx("MeanTTFTZeroSec", got.MeanTTFTZeroSec, want.MeanTTFTZeroSec)
			approx("MeanTPOTZeroSec", got.MeanTPOTZeroSec, want.MeanTPOTZeroSec)
			got.MeanTTFTZeroSec, got.MeanTPOTZeroSec = want.MeanTTFTZeroSec, want.MeanTPOTZeroSec
			if *got != *want {
				t.Fatalf("seed %d, fleet mean %v:\n got %+v\nwant %+v", seed, mean, *got, *want)
			}
		}
	}
}

func minCost(cands []Candidate) int64 {
	m := cands[0].Cost
	for _, c := range cands[1:] {
		m = min(m, c.Cost)
	}
	return m
}

// TestZeroRegretRoutesKeepNoRecords: routing memory follows regretful
// decisions, not routes. N zero-regret routes, completed or not, leave
// no regret record, and the request index holds one int32 per ID.
func TestZeroRegretRoutesKeepNoRecords(t *testing.T) {
	const n = 10000
	r := New(Config{})
	for i := 0; i < n; i++ {
		r.Route(sec(float64(i)), i, "c", "p", 40, 40, routeCands(), 2, 0, false)
		if i%2 == 0 {
			r.Outcome(i, simtime.Second, simtime.Millisecond)
		}
	}
	if got := len(r.regret.records); got != 0 {
		t.Fatalf("%d zero-regret routes kept %d regret records", n, got)
	}
	if got := len(r.regret.latest); got != n {
		t.Fatalf("request index has %d entries for %d requests", got, n)
	}
	s := r.FinalizeRegret(func(int) float64 { return 100 }, 100)
	if s.Decisions != n || s.Regretful != 0 || s.CompletedZero != n/2 || s.MeanTTFTZeroSec != 1 {
		t.Fatalf("summary %+v", s)
	}
	// One regretful route adds exactly one record.
	r.Route(sec(n), n, "c", "p", 40, 40, routeCands(), 0, 0, false)
	if got := len(r.regret.records); got != 1 {
		t.Fatalf("one regretful route kept %d records", got)
	}
}

// BenchmarkRecorderRoute times the routing-telemetry hot path: one op
// is a fresh recorder taking 4096 routing decisions over 16 candidates,
// each followed by its request's Outcome. One route in four passes over
// the cheapest replica, so it leaves a regret record.
func BenchmarkRecorderRoute(b *testing.B) {
	const reqs, width = 4096, 16
	cands := make([]Candidate, width)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := New(Config{})
		for req := 0; req < reqs; req++ {
			// Distinct loads: replica c queues ((7c+req) mod 16)*64 tokens.
			best := 0
			for c := range cands {
				load := (c*7 + req) % width
				cands[c] = Candidate{Replica: int32(c), QueuedTokens: int64(load) * 64}
				if load == 0 {
					best = c
				}
			}
			chosen := best
			if req%4 == 3 {
				chosen = (best + 1) % width
			}
			r.Route(simtime.Time(req), req, "c", "least-loaded", 96, 0, cands, chosen, 0, false)
			r.Outcome(req, simtime.Second, simtime.Millisecond)
		}
	}
}
