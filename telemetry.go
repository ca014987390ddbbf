// Public telemetry surface: a Telemetry handle wraps the internal
// observation recorder, captures request spans and policy decisions
// while a simulation runs, and exports them as a Chrome-trace JSON
// (chrome://tracing, Perfetto) or a decisions TSV.

package llmservingsim

import (
	"io"

	"repro/internal/obs"
)

// TraceDetail selects how much a Telemetry recorder captures. The zero
// value is TraceSpans.
type TraceDetail int

const (
	// TraceSpans captures per-request span timelines (queue, prefill,
	// decode, rejection) plus every policy decision record.
	TraceSpans TraceDetail = iota
	// TraceDecisions captures only policy decision records (routing,
	// admission, autoscaling, fleet events) — the cheapest level.
	TraceDecisions
	// TraceFull adds per-iteration slices, prefill-chunk sub-slices,
	// and KV spill/reload/prefix-cache instants to the span timelines.
	TraceFull
)

var traceDetails = newEnum("TraceDetail", "trace detail", "trace-detail",
	[]TraceDetail{TraceDecisions, TraceSpans, TraceFull},
	enumConst[obs.Detail]{"spans", nil, obs.DetailSpans},
	enumConst[obs.Detail]{"decisions", nil, obs.DetailDecisions},
	enumConst[obs.Detail]{"full", nil, obs.DetailFull})

// ParseTraceDetail converts CLI values ("spans", "decisions" or
// "full"; "" selects the default, spans).
func ParseTraceDetail(s string) (TraceDetail, error) { return traceDetails.parse(s) }

func (d TraceDetail) String() string { return traceDetails.str(d) }

// Set implements flag.Value.
func (d *TraceDetail) Set(s string) error { return traceDetails.set(d, s) }

func (d TraceDetail) internal() obs.Detail { return traceDetails.internal(d) }

// TraceDetails lists the trace detail levels (canonical CLI
// spellings).
func TraceDetails() []string { return traceDetails.names() }

// TelemetryConfig sizes a Telemetry recorder. The zero value captures
// spans with the default ring capacities.
type TelemetryConfig struct {
	Detail TraceDetail

	// EventCapacity / DecisionCapacity size the ring buffers holding
	// the most recent span events and decision records (defaults 65536
	// and 32768). Older entries are overwritten; routing-regret
	// accounting is kept exactly regardless of ring wrap.
	EventCapacity    int
	DecisionCapacity int

	// TopK is how many counterfactual alternatives each routing
	// decision snapshots beyond the chosen replica (default 3, max 7).
	TopK int
}

// Telemetry records request spans and policy decisions for one
// simulation run. Attach it with WithTelemetry (single-instance runs)
// or ClusterScenario.Telemetry, run the simulation, then export with
// WriteChromeTrace / WriteDecisionsTSV.
//
// A Telemetry value is not safe for concurrent use and holds one run's
// state: give each scenario its own recorder (a parallel Sweep must
// not share one across scenarios). A nil *Telemetry disables capture
// everywhere it is accepted.
type Telemetry struct {
	rec *obs.Recorder
}

// NewTelemetry builds a recorder; see TelemetryConfig for defaults.
func NewTelemetry(cfg TelemetryConfig) *Telemetry {
	return &Telemetry{rec: obs.New(obs.Config{
		Detail:      cfg.Detail.internal(),
		EventCap:    cfg.EventCapacity,
		DecisionCap: cfg.DecisionCapacity,
		TopK:        cfg.TopK,
	})}
}

// recorder returns the internal recorder, nil for a nil Telemetry.
func (t *Telemetry) recorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Events returns how many span events have been recorded in total
// (including any that have rotated out of the ring).
func (t *Telemetry) Events() int { return t.recorder().EventCount() }

// Decisions returns how many policy decisions have been recorded in
// total (including any that have rotated out of the ring).
func (t *Telemetry) Decisions() int { return t.recorder().DecisionCount() }

// WriteChromeTrace writes the captured spans and decisions as a
// Chrome-trace JSON object (load in chrome://tracing or
// https://ui.perfetto.dev). Process 0 is the cluster's control plane
// (one thread per decision kind); process 1+i is replica i, with an
// iterations track and one thread per request. Simulated time maps
// onto trace microseconds.
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	return t.recorder().WriteChromeTrace(w)
}

// WriteDecisionsTSV writes the captured policy decisions as a TSV:
// one row per routing, admission, autoscale, and fleet decision, with
// the routing rows carrying the candidate snapshot and token regret.
func (t *Telemetry) WriteDecisionsTSV(w io.Writer) error {
	return t.recorder().WriteDecisionsTSV(w)
}

// RegretSummary quantifies counterfactual routing regret over one
// cluster run: for every routing decision the router's chosen replica
// is compared against the cheapest candidate by estimated completion
// cost (queued tokens plus the request's non-cached prefill work), and
// the token gap is converted to seconds at the chosen replica's
// realized serving rate. The realized TTFT/TPOT split by decision
// quality measures what the policy's regretful picks actually cost.
type RegretSummary = obs.RegretSummary
