// This file holds the request accounting every cluster run uses: a
// RequestAccumulator folds each request's terminal record into
// per-class counters and quantile sketches as it completes. Counts,
// token totals, rates, means, and session metrics come from it in both
// metric modes. StreamMetrics decides only two things: whether the
// cluster also keeps the records (retained mode) and whether the
// sketched percentiles are replaced by exact ones computed from them
// (ExactDistributions). All state is integer (counters, 128-bit
// picosecond sums, sketch buckets), which makes Merge exact and
// order-free — the property the sharded cluster loop relies on for
// bit-identical per-shard aggregation.

package metrics

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/simtime"
)

// classAccum is one class's streaming aggregate.
type classAccum struct {
	requests  int
	rejected  int
	completed int

	rejAdmission  int
	rejNoReplica  int
	rejUnservable int
	rejFailure    int

	sloAttained    int
	outputTokens   int64
	cachedTokens   int64
	attainedTokens int64

	ttft    Sketch
	tpot    Sketch
	latency Sketch
}

// RequestAccumulator aggregates request outcomes online. Observe each
// record exactly once at its terminal event (completion or rejection);
// Classes and Latency then report exact counts, token totals, and
// means, and sketched percentiles (within SketchRelError of the exact
// nearest-rank values ExactDistributions computes from the records).
type RequestAccumulator struct {
	slos    map[string]SLO
	classes map[string]*classAccum

	// Cluster-level aggregates over completed requests.
	latency         Sketch
	ttftHi, ttftLo  uint64 // 128-bit picosecond sum of TTFTs
	tpotHi, tpotLo  uint64 // 128-bit picosecond sum of TPOTs
	tpotN           int
	promptTokens    int64
	attainedPrefill int64 // input tokens of TTFT-attained completions
	attainedDecode  int64 // output tokens of TPOT-attained completions

	// Session-level aggregate (sessions.go); empty unless records carry
	// session identity.
	sessions sessionAccum
}

// NewRequestAccumulator returns an accumulator scoring attainment
// against the given per-class SLOs (missing classes: no objective).
func NewRequestAccumulator(slos map[string]SLO) *RequestAccumulator {
	return &RequestAccumulator{slos: slos, classes: map[string]*classAccum{}}
}

func (a *RequestAccumulator) class(name string) *classAccum {
	if c, ok := a.classes[name]; ok {
		return c
	}
	c := &classAccum{}
	a.classes[name] = c
	return c
}

// Observe folds one terminal record into the aggregate.
func (a *RequestAccumulator) Observe(r *RequestRecord) {
	a.observeSession(r)
	c := a.class(r.Class)
	c.requests++
	if r.Rejected {
		c.rejected++
		switch r.RejectReason {
		case "admission":
			c.rejAdmission++
		case "no-replica":
			c.rejNoReplica++
		case "unservable":
			c.rejUnservable++
		case "failure":
			c.rejFailure++
		}
		return
	}
	c.completed++
	c.outputTokens += int64(r.OutputLen)
	c.cachedTokens += int64(r.CachedTokens)
	a.promptTokens += int64(r.InputLen)

	slo := a.slos[r.Class]
	ttft, tpot, lat := r.TTFT(), r.TPOT(), r.Latency()
	c.ttft.Add(ttft)
	c.latency.Add(lat)
	a.latency.Add(lat)
	var carry uint64
	a.ttftLo, carry = bits.Add64(a.ttftLo, uint64(maxDur(ttft, 0)), 0)
	a.ttftHi += carry
	if r.OutputLen > 1 {
		c.tpot.Add(tpot)
		a.tpotLo, carry = bits.Add64(a.tpotLo, uint64(maxDur(tpot, 0)), 0)
		a.tpotHi += carry
		a.tpotN++
	}
	if r.MeetsSLO(slo) {
		c.sloAttained++
		c.attainedTokens += int64(r.OutputLen)
	}
	if slo.TTFT == 0 || ttft <= slo.TTFT {
		a.attainedPrefill += int64(r.InputLen)
	}
	if slo.TPOT == 0 || tpot <= slo.TPOT {
		a.attainedDecode += int64(r.OutputLen)
	}
}

func maxDur(d, min simtime.Duration) simtime.Duration {
	if d < min {
		return min
	}
	return d
}

// Merge folds another accumulator into this one. Integer-only state
// makes the merge exact and order-free.
func (a *RequestAccumulator) Merge(o *RequestAccumulator) {
	if o == nil {
		return
	}
	for name, oc := range o.classes {
		c := a.class(name)
		c.requests += oc.requests
		c.rejected += oc.rejected
		c.completed += oc.completed
		c.rejAdmission += oc.rejAdmission
		c.rejNoReplica += oc.rejNoReplica
		c.rejUnservable += oc.rejUnservable
		c.rejFailure += oc.rejFailure
		c.sloAttained += oc.sloAttained
		c.outputTokens += oc.outputTokens
		c.cachedTokens += oc.cachedTokens
		c.attainedTokens += oc.attainedTokens
		c.ttft.Merge(&oc.ttft)
		c.tpot.Merge(&oc.tpot)
		c.latency.Merge(&oc.latency)
	}
	a.latency.Merge(&o.latency)
	var carry uint64
	a.ttftLo, carry = bits.Add64(a.ttftLo, o.ttftLo, 0)
	a.ttftHi += o.ttftHi + carry
	a.tpotLo, carry = bits.Add64(a.tpotLo, o.tpotLo, 0)
	a.tpotHi += o.tpotHi + carry
	a.tpotN += o.tpotN
	a.promptTokens += o.promptTokens
	a.attainedPrefill += o.attainedPrefill
	a.attainedDecode += o.attainedDecode
	a.mergeSessions(o)
}

// Requests returns total arrivals observed.
func (a *RequestAccumulator) Requests() int {
	n := 0
	for _, c := range a.classes {
		n += c.requests
	}
	return n
}

// Rejected returns total rejected arrivals.
func (a *RequestAccumulator) Rejected() int {
	n := 0
	for _, c := range a.classes {
		n += c.rejected
	}
	return n
}

// Completed returns total completed requests.
func (a *RequestAccumulator) Completed() int {
	n := 0
	for _, c := range a.classes {
		n += c.completed
	}
	return n
}

// PromptTokens returns the summed input lengths of completed requests.
func (a *RequestAccumulator) PromptTokens() int64 { return a.promptTokens }

// AttainedPrefillTokens returns the input tokens of completions that
// attained their TTFT target (the prefill-pool goodput numerator).
func (a *RequestAccumulator) AttainedPrefillTokens() int64 { return a.attainedPrefill }

// AttainedDecodeTokens returns the output tokens of completions that
// attained their TPOT target (the decode-pool goodput numerator).
func (a *RequestAccumulator) AttainedDecodeTokens() int64 { return a.attainedDecode }

// Classes rolls the aggregate up into per-class summaries ordered by
// class name.
func (a *RequestAccumulator) Classes(end simtime.Time) []ClassSummary {
	names := make([]string, 0, len(a.classes))
	for name := range a.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	endSec := end.Seconds()
	out := make([]ClassSummary, 0, len(names))
	for _, name := range names {
		c := a.classes[name]
		s := ClassSummary{
			Class: name, SLO: a.slos[name],
			Requests: c.requests, Rejected: c.rejected, Completed: c.completed,
			RejectedAdmission: c.rejAdmission, RejectedNoReplica: c.rejNoReplica,
			RejectedUnservable: c.rejUnservable, RejectedFailure: c.rejFailure,
			TTFT: c.ttft.Dist(), TPOT: c.tpot.Dist(), Latency: c.latency.Dist(),
			SLOAttained:  c.sloAttained,
			OutputTokens: c.outputTokens, CachedTokens: c.cachedTokens,
		}
		if endSec > 0 {
			s.GoodputTPS = float64(c.attainedTokens) / endSec
			s.ThroughputTPS = float64(c.outputTokens) / endSec
		}
		out = append(out, s)
	}
	return out
}

// Latency returns cluster-level latency statistics mirroring
// metrics.Latency over the completed requests: exact count and means,
// sketched percentiles.
func (a *RequestAccumulator) Latency() LatencyStats {
	n := a.latency.Count()
	if n == 0 {
		return LatencyStats{}
	}
	stats := LatencyStats{
		Count:       n,
		MeanSec:     a.latency.MeanSec(),
		P50Sec:      a.latency.QuantileSec(0.50),
		P95Sec:      a.latency.QuantileSec(0.95),
		P99Sec:      a.latency.QuantileSec(0.99),
		MeanTTFTSec: sum128Sec(a.ttftHi, a.ttftLo) / float64(n),
	}
	if a.tpotN > 0 {
		stats.MeanTPOTSec = sum128Sec(a.tpotHi, a.tpotLo) / float64(a.tpotN)
	}
	return stats
}

// sum128Sec converts a 128-bit picosecond sum to seconds.
func sum128Sec(hi, lo uint64) float64 {
	return (float64(hi)*math.Pow(2, 64) + float64(lo)) / float64(simtime.Second)
}
