package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	sim "repro"
	"repro/internal/cluster"
	"repro/internal/core"
)

// pinned holds each workload's simulated-results fingerprint at
// defaultSeed. A run at that seed whose fingerprint differs has changed
// what the simulator computes, and fails. Refresh a pin only with a
// change that means to alter simulated results, and say so.
var pinned = map[string]string{
	"fleet256":        "477ce0ae4cf335ab",
	"paper-npu-pim":   "d1a246eade7c2417",
	"sessions-tiered": "b6c6feee9225aa7a",
	"disagg-traced":   "ec0b1cb58cc22053",
}

// summary is the part of a run's report the benchmark checks: the
// simulated statistics that make up the fingerprint and the counts the
// conservation checks add up. Both the public and the internal report
// types reduce to it.
type summary struct {
	cluster  bool
	expected int // arrivals the workload generated

	requests, admitted, rejected, requeued, completed int
	iterations                                        int
	simEndSec                                         float64
	goodputTPS                                        float64

	classes []classCounts

	// Single-instance latency distribution (clusters carry it per class).
	latP50, latP99, meanTTFT float64

	prefixHitRate              float64
	prefixSaved                int64
	spillBytes, reloadBytes    int64
	evictions                  int64
	promptTokens               float64
	handoffs, decodePlacements int
	sessions                   *sessionCounts
	telemetry                  string
	backendHost, replicaHost   time.Duration // single-instance public reports only
}

type classCounts struct {
	name                                               string
	requests, rejected, completed                      int
	rejAdmission, rejNoReplica, rejUnservable, rejFail int
	ttftP50, ttftP99                                   float64
}

type sessionCounts struct {
	sessions, completed, attained, turns, turnsRejected int
}

func publicClusterSummary(r *sim.ClusterReport, expected int) *summary {
	s := &summary{
		cluster: true, expected: expected,
		requests: r.Requests, admitted: r.Admitted, rejected: r.Rejected, requeued: r.Requeued,
		iterations: r.TotalIterations(), simEndSec: r.SimEndSec, goodputTPS: r.GoodputTPS,
		prefixHitRate: r.PrefixHitRate, prefixSaved: r.PrefixTokensSaved,
		spillBytes: r.PrefixSpillBytes, reloadBytes: r.PrefixReloadBytes,
		promptTokens: r.PromptTPS * r.SimEndSec,
		handoffs:     r.HandoffCount,
		telemetry:    "off",
	}
	s.evictions, _ = r.KVEvictions()
	for _, c := range r.Classes {
		s.completed += c.Completed
		s.classes = append(s.classes, classCounts{
			name: c.Class, requests: c.Requests, rejected: c.Rejected, completed: c.Completed,
			rejAdmission: c.RejectedAdmission, rejNoReplica: c.RejectedNoReplica,
			rejUnservable: c.RejectedUnservable, rejFail: c.RejectedFailure,
			ttftP50: c.TTFT.P50Sec, ttftP99: c.TTFT.P99Sec,
		})
	}
	for _, p := range r.Pools {
		if p.Role == "decode" {
			s.decodePlacements = p.Requests
		}
	}
	if ss := r.Sessions; ss != nil {
		s.sessions = &sessionCounts{ss.Sessions, ss.Completed, ss.Attained, ss.Turns, ss.TurnsRejected}
	}
	return s
}

func internalClusterSummary(r *cluster.Report, expected int) *summary {
	s := &summary{
		cluster: true, expected: expected,
		requests: r.Requests, admitted: r.Admitted, rejected: r.Rejected, requeued: r.Requeued,
		iterations: r.TotalIterations(), simEndSec: r.SimEnd.Seconds(), goodputTPS: r.GoodputTPS,
		prefixHitRate: r.PrefixHitRate(), prefixSaved: r.PrefixTokensSaved,
		spillBytes: r.PrefixSpillBytes, reloadBytes: r.PrefixReloadBytes,
		promptTokens: r.PromptTPS * r.SimEnd.Seconds(),
		handoffs:     r.HandoffCount,
		telemetry:    "off",
	}
	for _, p := range r.PerReplica {
		s.evictions += p.Evictions
	}
	for _, c := range r.Classes {
		s.completed += c.Completed
		s.classes = append(s.classes, classCounts{
			name: c.Class, requests: c.Requests, rejected: c.Rejected, completed: c.Completed,
			rejAdmission: c.RejectedAdmission, rejNoReplica: c.RejectedNoReplica,
			rejUnservable: c.RejectedUnservable, rejFail: c.RejectedFailure,
			ttftP50: c.TTFT.P50Sec, ttftP99: c.TTFT.P99Sec,
		})
	}
	for _, p := range r.Pools {
		if p.Role == "decode" {
			s.decodePlacements = p.Requests
		}
	}
	if ss := r.Sessions; ss != nil {
		s.sessions = &sessionCounts{ss.Sessions, ss.Completed, ss.Attained, ss.Turns, ss.TurnsRejected}
	}
	return s
}

func publicSingleSummary(r *sim.Report, expected int) *summary {
	return &summary{
		expected: expected,
		requests: r.Latency.Count + r.Rejected, admitted: r.Latency.Count,
		rejected: r.Rejected, completed: r.Latency.Count,
		iterations: r.Iterations, simEndSec: r.SimEndSec,
		latP50: r.Latency.P50Sec, latP99: r.Latency.P99Sec, meanTTFT: r.Latency.TTFTSec,
		goodputTPS: r.GenTPS, evictions: r.KV.Evictions,
		promptTokens: r.PromptTPS * r.SimEndSec,
		telemetry:    "off",
		backendHost:  r.SimTime.ExecutionEngine + r.SimTime.GraphConverter + r.SimTime.AstraSim,
		replicaHost:  r.SimTime.Total,
	}
}

func internalSingleSummary(r *core.Report, expected int) *summary {
	return &summary{
		expected: expected,
		requests: r.Latency.Count + len(r.Rejected), admitted: r.Latency.Count,
		rejected: len(r.Rejected), completed: r.Latency.Count,
		iterations: r.Iterations, simEndSec: r.SimEnd.Seconds(),
		latP50: r.Latency.P50Sec, latP99: r.Latency.P99Sec, meanTTFT: r.Latency.MeanTTFTSec,
		goodputTPS: r.GenTPS, evictions: r.KV.Evictions,
		promptTokens: r.PromptTPS * r.SimEnd.Seconds(),
		telemetry:    "off",
	}
}

// fingerprint hashes the simulated statistics of a run: iteration
// count, sim end, TTFT p50/p99 per class (latency p50/p99 and mean TTFT
// for a single instance), goodput, prefix hit rate, handoff count and
// the outcome counts. Floats enter with every bit, so any change to
// what the simulator computes changes the hash; host timings never
// enter.
func (s *summary) fingerprint() string {
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&b, "req=%d adm=%d rej=%d rq=%d done=%d it=%d end=%s goodput=%s",
		s.requests, s.admitted, s.rejected, s.requeued, s.completed, s.iterations, f(s.simEndSec), f(s.goodputTPS))
	if s.cluster {
		for _, c := range s.classes {
			fmt.Fprintf(&b, " %s:ttft50=%s,ttft99=%s", c.name, f(c.ttftP50), f(c.ttftP99))
		}
		fmt.Fprintf(&b, " prefix=%s handoffs=%d", f(s.prefixHitRate), s.handoffs)
	} else {
		fmt.Fprintf(&b, " lat50=%s lat99=%s ttft=%s", f(s.latP50), f(s.latP99), f(s.meanTTFT))
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// check verifies conservation from the report: every arrival is
// counted once, admitted or rejected; per class, completed plus
// rejected equals arrivals and the reject reasons add up; session turns
// add up; every decode placement was reached by a KV handoff.
func (s *summary) check() error {
	if s.requests != s.expected {
		return fmt.Errorf("report counts %d arrivals, workload generated %d", s.requests, s.expected)
	}
	if s.admitted+s.rejected != s.requests {
		return fmt.Errorf("admitted %d + rejected %d != arrivals %d", s.admitted, s.rejected, s.requests)
	}
	if s.completed+s.rejected != s.requests {
		return fmt.Errorf("completed %d + rejected %d != arrivals %d", s.completed, s.rejected, s.requests)
	}
	if s.cluster {
		total := 0
		for _, c := range s.classes {
			total += c.requests
			if c.completed+c.rejected != c.requests {
				return fmt.Errorf("class %s: completed %d + rejected %d != arrivals %d", c.name, c.completed, c.rejected, c.requests)
			}
			if reasons := c.rejAdmission + c.rejNoReplica + c.rejUnservable + c.rejFail; reasons != c.rejected {
				return fmt.Errorf("class %s: reject reasons sum to %d, rejected %d", c.name, reasons, c.rejected)
			}
		}
		if total != s.requests {
			return fmt.Errorf("classes hold %d arrivals, report %d", total, s.requests)
		}
	}
	if ss := s.sessions; ss != nil {
		if ss.turns != s.requests {
			return fmt.Errorf("session turns %d != arrivals %d", ss.turns, s.requests)
		}
		if ss.turnsRejected > s.rejected || ss.attained > ss.completed || ss.completed > ss.sessions {
			return fmt.Errorf("session counts do not nest: %+v", *ss)
		}
	}
	if s.handoffs < s.decodePlacements {
		return fmt.Errorf("%d KV handoffs for %d decode placements", s.handoffs, s.decodePlacements)
	}
	return nil
}

// checkPinned compares a run's fingerprint with the pinned value; only
// the default seed is pinned.
func checkPinned(workload string, seed int64, fp string) error {
	if seed != defaultSeed {
		return nil
	}
	want := pinned[workload]
	if want == "" {
		return fmt.Errorf("no pinned fingerprint for workload %s (got %s)", workload, fp)
	}
	if fp != want {
		return fmt.Errorf("fingerprint %s differs from the pinned %s at seed %d", fp, want, seed)
	}
	return nil
}
