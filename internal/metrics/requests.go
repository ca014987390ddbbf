// This file holds per-request accounting for cluster serving
// simulations: every arrival becomes a RequestRecord (routed to a
// replica or rejected at admission), a RequestAccumulator (streaming.go)
// rolls records up into per-class summaries with SLO attainment and
// goodput, ExactDistributions swaps in exact percentiles when the
// records are retained, and both levels have TSV writers.

package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/simtime"
)

// SLO is a per-class service-level objective. A zero target means "no
// objective" for that component and is always attained.
type SLO struct {
	TTFT simtime.Duration // time-to-first-token target
	TPOT simtime.Duration // time-per-output-token target
}

// RequestRecord is the lifecycle of one request through a cluster:
// arrival, admission verdict, replica placement, and completion timing.
type RequestRecord struct {
	ID      int
	Class   string
	Replica int // replica index; -1 when rejected at admission

	InputLen, OutputLen int
	// CachedTokens counts the prompt tokens served from the replica's
	// shared-prefix KV cache instead of being recomputed at prefill.
	CachedTokens int

	Arrival    simtime.Time
	FirstToken simtime.Time
	Completed  simtime.Time

	Rejected bool
	// RejectReason classifies the refusal: "admission" (dropped by the
	// admission policy), "no-replica" (no routable replica existed, the
	// cluster-level 503), "unservable" (the scheduler can never serve
	// the request), or "failure" (lost to an injected replica failure).
	// Empty for served requests.
	RejectReason string

	// Session/Turn/SessionTurns mirror the request's conversation
	// identity (workload.Request): Session 0 means non-session traffic.
	Session      int
	Turn         int
	SessionTurns int
}

// TTFT returns the time from arrival to first output token.
func (r RequestRecord) TTFT() simtime.Duration { return r.FirstToken.Sub(r.Arrival) }

// TPOT returns the time per output token after the first; zero for
// single-token outputs.
func (r RequestRecord) TPOT() simtime.Duration {
	return LatencySample{
		Arrival: r.Arrival, FirstToken: r.FirstToken,
		Completed: r.Completed, OutputTokens: r.OutputLen,
	}.TPOT()
}

// Latency returns the end-to-end time from arrival to completion.
func (r RequestRecord) Latency() simtime.Duration { return r.Completed.Sub(r.Arrival) }

// MeetsSLO reports whether the completed request attained both SLO
// components. Rejected requests never attain.
func (r RequestRecord) MeetsSLO(slo SLO) bool {
	if r.Rejected {
		return false
	}
	if slo.TTFT > 0 && r.TTFT() > slo.TTFT {
		return false
	}
	if slo.TPOT > 0 && r.TPOT() > slo.TPOT {
		return false
	}
	return true
}

// Dist summarises one latency component's distribution in seconds, with
// nearest-rank percentiles.
type Dist struct {
	MeanSec, P50Sec, P95Sec, P99Sec float64
}

// NewDist computes a Dist from unordered values in seconds.
func NewDist(vals []float64) Dist {
	if len(vals) == 0 {
		return Dist{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Dist{
		MeanSec: sum / float64(len(sorted)),
		P50Sec:  PercentileSorted(sorted, 0.50),
		P95Sec:  PercentileSorted(sorted, 0.95),
		P99Sec:  PercentileSorted(sorted, 0.99),
	}
}

// ClassSummary aggregates one traffic class's records: counts, latency
// component distributions, SLO attainment, and goodput.
type ClassSummary struct {
	Class string
	SLO   SLO

	Requests  int // arrivals (admitted + rejected)
	Rejected  int // refused, any reason
	Completed int // finished serving

	// Rejection breakdown by reason (sums to Rejected; see
	// RequestRecord.RejectReason for the taxonomy).
	RejectedAdmission  int
	RejectedNoReplica  int
	RejectedUnservable int
	RejectedFailure    int

	TTFT    Dist // over completed requests
	TPOT    Dist // over completed requests with >1 output token
	Latency Dist // end-to-end, over completed requests

	SLOAttained  int   // completed requests meeting both SLO components
	OutputTokens int64 // generated by completed requests
	CachedTokens int64 // prompt tokens served from the prefix cache

	// GoodputTPS is the SLO-attained generation throughput: output
	// tokens of SLO-attained requests per second of simulated time.
	GoodputTPS float64
	// ThroughputTPS counts all completed output tokens per second.
	ThroughputTPS float64
}

// AttainedFrac returns the fraction of arrivals that completed within
// SLO (rejections count against attainment).
func (c ClassSummary) AttainedFrac() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.SLOAttained) / float64(c.Requests)
}

// ExactDistributions replaces the sketched TTFT, TPOT, and latency
// distributions of an accumulator's class summaries with exact
// nearest-rank ones computed from the retained records, and returns
// the exact cluster-level latency statistics over them. records must
// be in ID order (the cluster-level means sum in that order) and
// classes must be the summaries an accumulator produced over the same
// records; counts and rates are left as the accumulator computed them.
func ExactDistributions(records []RequestRecord, classes []ClassSummary) LatencyStats {
	idx := make(map[string]int, len(classes))
	for i, c := range classes {
		idx[c.Class] = i
	}
	ttft := make([][]float64, len(classes))
	tpot := make([][]float64, len(classes))
	lat := make([][]float64, len(classes))
	samples := make([]LatencySample, 0, len(records))
	for i := range records {
		r := &records[i]
		if r.Rejected {
			continue
		}
		k := idx[r.Class]
		ttft[k] = append(ttft[k], r.TTFT().Seconds())
		lat[k] = append(lat[k], r.Latency().Seconds())
		if r.OutputLen > 1 {
			tpot[k] = append(tpot[k], r.TPOT().Seconds())
		}
		samples = append(samples, LatencySample{
			Arrival: r.Arrival, FirstToken: r.FirstToken,
			Completed: r.Completed, OutputTokens: r.OutputLen,
		})
	}
	for k := range classes {
		classes[k].TTFT = NewDist(ttft[k])
		classes[k].TPOT = NewDist(tpot[k])
		classes[k].Latency = NewDist(lat[k])
	}
	return Latency(samples)
}

// RequestsTSVWriter emits the cluster's *-requests.tsv format one row
// at a time, so streaming runs can write each record at its terminal
// event instead of retaining the records slice for a post-hoc dump.
// Errors are sticky: the first write failure is kept and returned by
// Flush (and every later call is a no-op).
type RequestsTSVWriter struct {
	bw          *bufio.Writer
	err         error
	wroteHeader bool
}

// NewRequestsTSVWriter returns a row writer over w.
func NewRequestsTSVWriter(w io.Writer) *RequestsTSVWriter {
	return &RequestsTSVWriter{bw: bufio.NewWriter(w)}
}

func (t *RequestsTSVWriter) header() {
	if t.wroteHeader || t.err != nil {
		return
	}
	t.wroteHeader = true
	_, t.err = fmt.Fprintln(t.bw, "id\tclass\treplica\tinput_toks\toutput_toks\tcached_toks\t"+
		"arrival_s\tttft_s\ttpot_s\tlatency_s\trejected\treject_reason")
}

// WriteRow appends one record's row (header first, on the first row).
func (t *RequestsTSVWriter) WriteRow(r *RequestRecord) {
	t.header()
	if t.err != nil {
		return
	}
	class := r.Class
	if class == "" {
		class = "-"
	}
	if r.Rejected {
		reason := r.RejectReason
		if reason == "" {
			reason = "-"
		}
		_, t.err = fmt.Fprintf(t.bw, "%d\t%s\t-\t%d\t%d\t%d\t%.6f\t-\t-\t-\t1\t%s\n",
			r.ID, class, r.InputLen, r.OutputLen, r.CachedTokens, r.Arrival.Seconds(), reason)
		return
	}
	_, t.err = fmt.Fprintf(t.bw, "%d\t%s\t%d\t%d\t%d\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t0\t-\n",
		r.ID, class, r.Replica, r.InputLen, r.OutputLen, r.CachedTokens,
		r.Arrival.Seconds(), r.TTFT().Seconds(), r.TPOT().Seconds(),
		r.Latency().Seconds())
}

// Flush writes the header if no row did, drains the buffer, and
// returns the first error encountered.
func (t *RequestsTSVWriter) Flush() error {
	t.header()
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// WriteRequestsTSV writes one row per request record: the cluster's
// *-requests.tsv output.
func WriteRequestsTSV(w io.Writer, records []RequestRecord) error {
	tw := NewRequestsTSVWriter(w)
	for i := range records {
		tw.WriteRow(&records[i])
	}
	return tw.Flush()
}

// WriteClassSummaryTSV writes one row per traffic class: the cluster's
// *-classes.tsv output.
func WriteClassSummaryTSV(w io.Writer, summaries []ClassSummary) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "class\trequests\trejected\trej_admission\trej_no_replica\t"+
		"rej_unservable\trej_failure\tcompleted\tslo_attained\t"+
		"ttft_p50_s\tttft_p95_s\tttft_p99_s\ttpot_mean_s\t"+
		"latency_p50_s\tlatency_p99_s\tgoodput_tps\tthroughput_tps\tcached_toks"); err != nil {
		return err
	}
	for _, s := range summaries {
		class := s.Class
		if class == "" {
			class = "-"
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.2f\t%.2f\t%d\n",
			class, s.Requests, s.Rejected,
			s.RejectedAdmission, s.RejectedNoReplica, s.RejectedUnservable, s.RejectedFailure,
			s.Completed, s.SLOAttained,
			s.TTFT.P50Sec, s.TTFT.P95Sec, s.TTFT.P99Sec, s.TPOT.MeanSec,
			s.Latency.P50Sec, s.Latency.P99Sec, s.GoodputTPS, s.ThroughputTPS,
			s.CachedTokens); err != nil {
			return err
		}
	}
	return bw.Flush()
}
