// Package obs is the simulator's telemetry substrate: per-request span
// timelines, policy decision records with counterfactual top-k routing
// regret, and exporters for Chrome tracing and TSV analysis.
//
// The Recorder is strictly passive — it only observes times and counts
// the simulation already computed, never feeds anything back — so an
// instrumented run is bit-identical to an uninstrumented one. It is
// also nil-safe: every method on a nil *Recorder is a no-op, so the
// layers it is threaded through (sched, kvcache, core, cluster) carry a
// possibly-nil pointer and pay one predictable branch when telemetry is
// off. Events and decisions land in ring buffers, so a long run records
// the most recent window without unbounded growth. Routing regret is
// folded as the run goes, so regret summaries stay exact even after the
// rings wrap: counters at each route and each zero-regret completion,
// and one small record per regretful decision, kept for the end-of-run
// pass that prices token regret in seconds.
package obs

import (
	"repro/internal/simtime"
)

// Detail selects how much the recorder captures. Higher levels include
// the lower ones.
type Detail uint8

const (
	// DetailDecisions records policy decisions (routing, admission,
	// autoscaling, fleet events) and routing-regret outcomes only.
	DetailDecisions Detail = iota + 1
	// DetailSpans adds per-request span events: admit, first token,
	// finish, reject.
	DetailSpans
	// DetailFull adds per-iteration events, prefill chunk slices, and
	// KV page/prefix-block operations.
	DetailFull
)

// EventKind tags one span-timeline event.
type EventKind uint8

const (
	// EvAdmit marks a request entering the replica's active set.
	// A = arrival time (ps), B = prompt tokens served from the prefix
	// cache.
	EvAdmit EventKind = iota + 1
	// EvFirstToken marks the first output token (end of prefill).
	EvFirstToken
	// EvFinish marks request completion.
	EvFinish
	// EvReject marks a refusal. A = RejectReason.
	EvReject
	// EvIteration is one scheduler iteration. Dur = iteration latency,
	// A = batch size, B = prompt tokens.
	EvIteration
	// EvPrefillChunk is one prefill slice of a request. Dur = slice
	// latency, A = new prompt tokens processed.
	EvPrefillChunk
	// EvKVEvict / EvKVReload are per-sequence page operations.
	// A = bytes moved.
	EvKVEvict
	EvKVReload
	// EvPrefixSpill / EvPrefixDrop / EvPrefixHit are shared-prefix
	// cache tier operations: a block spilled device->host, a host block
	// dropped, and an admit served A cached tokens from the cache.
	EvPrefixSpill
	EvPrefixDrop
	EvPrefixHit
	// EvHandoff is a disaggregated prefill->decode KV transfer: Replica
	// is the decode replica receiving the cache, Dur the priced link
	// time, A = bytes moved, B = source (prefill) replica slot.
	EvHandoff
)

func (k EventKind) String() string {
	switch k {
	case EvAdmit:
		return "admit"
	case EvFirstToken:
		return "first-token"
	case EvFinish:
		return "finish"
	case EvReject:
		return "reject"
	case EvIteration:
		return "iteration"
	case EvPrefillChunk:
		return "prefill-chunk"
	case EvKVEvict:
		return "kv-evict"
	case EvKVReload:
		return "kv-reload"
	case EvPrefixSpill:
		return "prefix-spill"
	case EvPrefixDrop:
		return "prefix-drop"
	case EvPrefixHit:
		return "prefix-hit"
	case EvHandoff:
		return "handoff"
	default:
		return "unknown"
	}
}

// RejectReason classifies why a request was refused.
type RejectReason uint8

const (
	RejectNone RejectReason = iota
	// RejectAdmission: dropped by the cluster admission policy.
	RejectAdmission
	// RejectNoReplica: no routable replica existed at arrival (the
	// cluster-level 503).
	RejectNoReplica
	// RejectUnservable: the replica's scheduler refused the request as
	// unservable (prompt beyond the context limit or KV budget).
	RejectUnservable
	// RejectFailure: lost to an injected replica failure with
	// Reject set.
	RejectFailure
)

func (r RejectReason) String() string {
	switch r {
	case RejectAdmission:
		return "admission"
	case RejectNoReplica:
		return "no-replica"
	case RejectUnservable:
		return "unservable"
	case RejectFailure:
		return "failure"
	default:
		return ""
	}
}

// Event is one span-timeline entry. Fields A and B carry kind-specific
// payloads (see the EventKind docs); Class is set only on low-volume
// kinds (admit, reject) so the hot kinds stay pointer-free.
type Event struct {
	Kind    EventKind
	Replica int32
	Req     int32
	Time    simtime.Time
	Dur     simtime.Duration
	A, B    int64
	Class   string
}

// DecisionKind tags one policy decision record.
type DecisionKind uint8

const (
	// DecisionRoute is a router placement choice.
	DecisionRoute DecisionKind = iota + 1
	// DecisionAdmission is an admission verdict (accept or reject).
	DecisionAdmission
	// DecisionScale is an autoscaler tick.
	DecisionScale
	// DecisionFleet is an injected fleet event (fail, drain, scale).
	DecisionFleet
)

func (k DecisionKind) String() string {
	switch k {
	case DecisionRoute:
		return "route"
	case DecisionAdmission:
		return "admission"
	case DecisionScale:
		return "scale"
	case DecisionFleet:
		return "fleet"
	default:
		return "unknown"
	}
}

// MaxTopK bounds how many counterfactual alternatives a routing
// decision snapshots, so Decision stays a fixed-size struct and the
// decision ring allocates nothing per record.
const MaxTopK = 7

// Candidate is one replica's routing-visible state at a decision
// instant. PrefixTokens is the request class's device-resident prefix
// coverage on this replica (host-spilled blocks still price a reload,
// so they do not count). Cost is the recorder's counterfactual score:
// queued tokens plus the tokens this replica would actually have to
// prefill (prompt minus that coverage) — lower is better.
type Candidate struct {
	Replica        int32
	QueuedTokens   int64
	QueuedRequests int32
	PrefixTokens   int32
	Cost           int64
}

// Decision is one recorded policy choice. Field semantics by Kind:
//
//	Route:     Req/Class set; Chosen = placed replica; Best = least-cost
//	           replica; Regret = Cost(chosen) - Cost(best) in tokens;
//	           Cand[:NCand] = chosen first, then the top-k alternatives
//	           by cost.
//	Admission: Req/Class set; Chosen = 1 (accepted) or 0; Aux =
//	           RejectReason on refusal.
//	Scale:     Chosen = clamped target replicas; Aux = committed
//	           replicas before; Regret = raw (unclamped) desired count.
//	Fleet:     Chosen = target replica (fail/drain) or target count
//	           (scale); Policy = event kind.
type Decision struct {
	Kind   DecisionKind
	Time   simtime.Time
	Req    int32
	Class  string
	Policy string
	Chosen int32
	Best   int32
	Aux    int64
	Regret int64
	// Stage tags disaggregated routing decisions: 0 = unified, 1 =
	// prefill placement, 2 = decode placement. Requeue marks routes
	// re-issued for backlog displaced by a drain or failure.
	Stage   uint8
	Requeue bool
	NCand   uint8
	Cand    [MaxTopK + 1]Candidate
}

// regretRecord is one regretful routing decision and its realized
// result, kept in full (not ring-buffered) so FinalizeRegret can price
// it at the chosen replica's end-of-run rate.
type regretRecord struct {
	chosen   int32
	done     bool
	rejected bool
	regret   int64 // tokens, > 0
	ttft     simtime.Duration
	tpot     simtime.Duration
}

// regretFold is the running routing-regret state. Everything known when
// a route is made is counted at Route; a zero-regret route's latency is
// folded when its request completes; a regretful route keeps a record.
//
// latest maps a request ID to its latest routing decision that has not
// yet seen an outcome: 0 for none, pendingZero for a zero-regret route,
// k > 0 for records[k-1]. Request IDs are dense from 0 (the cluster
// assigns them in arrival order), so this is a slice, not a map; a
// negative ID is scored but never linked to an outcome.
type regretFold struct {
	decisions     int
	requeues      int
	regretTokens  int64
	stageDecision [3]int   // by stage; [0] (unified) is unused
	stageTokens   [3]int64 // likewise

	completedZero      int
	ttftZero, tpotZero float64 // seconds, summed in completion order

	records []regretRecord // route order
	latest  []int32
}

const pendingZero = -1

// Config sizes a Recorder.
type Config struct {
	// Detail selects the capture level; zero defaults to DetailSpans.
	Detail Detail
	// EventCap / DecisionCap size the ring buffers; zero defaults to
	// 65536 events and 32768 decisions. Storage is allocated in chunks
	// as the rings are first written, so capacity a run never reaches
	// costs nothing.
	EventCap    int
	DecisionCap int
	// TopK is how many counterfactual alternatives each routing
	// decision snapshots (beyond the chosen replica); zero defaults to
	// 3, clamped to MaxTopK.
	TopK int
}

// Recorder captures telemetry for one simulation run. It is not safe
// for concurrent use; parallel sweeps give each scenario its own
// recorder, matching the one-recorder-per-cluster threading.
type Recorder struct {
	detail Detail
	topK   int

	events    ring[Event]
	decisions ring[Decision]

	routePolicy string
	regret      regretFold
}

// New builds a recorder; see Config for defaults.
func New(cfg Config) *Recorder {
	if cfg.Detail == 0 {
		cfg.Detail = DetailSpans
	}
	if cfg.EventCap <= 0 {
		cfg.EventCap = 65536
	}
	if cfg.DecisionCap <= 0 {
		cfg.DecisionCap = 32768
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 3
	}
	if cfg.TopK > MaxTopK {
		cfg.TopK = MaxTopK
	}
	return &Recorder{
		detail:    cfg.Detail,
		topK:      cfg.TopK,
		events:    newRing[Event](cfg.EventCap),
		decisions: newRing[Decision](cfg.DecisionCap),
	}
}

// Spans reports whether span events are being captured. Callers on hot
// paths cache this instead of nil-checking per event.
func (r *Recorder) Spans() bool { return r != nil && r.detail >= DetailSpans }

// Full reports whether per-iteration and KV-operation events are being
// captured.
func (r *Recorder) Full() bool { return r != nil && r.detail >= DetailFull }

func (r *Recorder) push(e Event) { *r.events.next() = e }

// decision returns a cleared ring slot for the next decision record, so
// callers fill it in place instead of copying a Decision in.
func (r *Recorder) decision(kind DecisionKind, t simtime.Time, req int32, policy string) *Decision {
	d := r.decisions.next()
	*d = Decision{}
	d.Kind, d.Time, d.Req, d.Policy = kind, t, req, policy
	return d
}

// EventCount returns how many events were recorded over the run
// (including any that have rotated out of the ring).
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	return r.events.n
}

// DecisionCount returns how many decisions were recorded over the run.
func (r *Recorder) DecisionCount() int {
	if r == nil {
		return 0
	}
	return r.decisions.n
}

// eachEvent visits the retained events oldest to newest.
func (r *Recorder) eachEvent(fn func(e *Event)) {
	if r != nil {
		r.events.each(fn)
	}
}

// eachDecision visits the retained decisions oldest to newest.
func (r *Recorder) eachDecision(fn func(d *Decision)) {
	if r != nil {
		r.decisions.each(fn)
	}
}

// Admit records a request entering replica's active set: the queue span
// is [arrival, t], and cached prompt tokens were served from the
// shared-prefix cache.
func (r *Recorder) Admit(replica, req int, class string, arrival, t simtime.Time, cached int) {
	if !r.Spans() {
		return
	}
	r.push(Event{Kind: EvAdmit, Replica: int32(replica), Req: int32(req),
		Time: t, A: int64(arrival), B: int64(cached), Class: class})
}

// FirstToken records the end of prefill for req on replica.
func (r *Recorder) FirstToken(replica, req int, t simtime.Time) {
	if !r.Spans() {
		return
	}
	r.push(Event{Kind: EvFirstToken, Replica: int32(replica), Req: int32(req), Time: t})
}

// Finish records req completing on replica.
func (r *Recorder) Finish(replica, req int, t simtime.Time) {
	if !r.Spans() {
		return
	}
	r.push(Event{Kind: EvFinish, Replica: int32(replica), Req: int32(req), Time: t})
}

// Reject records a refusal; replica is -1 for cluster-level rejections.
func (r *Recorder) Reject(replica, req int, class string, t simtime.Time, reason RejectReason) {
	if !r.Spans() {
		return
	}
	r.push(Event{Kind: EvReject, Replica: int32(replica), Req: int32(req),
		Time: t, A: int64(reason), Class: class})
}

// Iteration records one completed scheduler iteration.
func (r *Recorder) Iteration(replica int, start simtime.Time, d simtime.Duration, batch, promptToks int) {
	if !r.Full() {
		return
	}
	r.push(Event{Kind: EvIteration, Replica: int32(replica), Req: -1,
		Time: start, Dur: d, A: int64(batch), B: int64(promptToks)})
}

// PrefillChunk records one prefill slice of req spanning [start, end].
func (r *Recorder) PrefillChunk(replica, req int, start, end simtime.Time, toks int) {
	if !r.Full() {
		return
	}
	r.push(Event{Kind: EvPrefillChunk, Replica: int32(replica), Req: int32(req),
		Time: start, Dur: end.Sub(start), A: int64(toks)})
}

// KVOp records a KV page or prefix-block operation (kind is one of the
// EvKV*/EvPrefix* kinds). req is -1 when the operation is not tied to
// one request.
func (r *Recorder) KVOp(replica, req int, t simtime.Time, bytes int64, kind EventKind) {
	if !r.Full() {
		return
	}
	r.push(Event{Kind: kind, Replica: int32(replica), Req: int32(req), Time: t, A: bytes})
}

// Route records one router placement: cands is the routable candidate
// set (Cost fields are computed here), chosenPos indexes into cands.
// The recorder scores every candidate with the prefix-aware load score,
// derives the counterfactual best, and keeps the chosen replica plus
// the top-k cheapest alternatives. stage tags disaggregated decisions
// (0 unified, 1 prefill, 2 decode); requeue marks routes re-issued for
// backlog displaced by a drain or failure.
func (r *Recorder) Route(t simtime.Time, req int, class, policy string, inLen, prefixLen int, cands []Candidate, chosenPos int, stage uint8, requeue bool) {
	if r == nil || len(cands) == 0 || chosenPos < 0 || chosenPos >= len(cands) {
		return
	}
	r.routePolicy = policy

	// Score: tokens already queued, plus the prefill tokens this replica
	// would actually compute for the request (prompt minus its
	// device-resident prefix coverage), plus the uncovered prefix tokens
	// once more — placing a shared-prefix request on a cold replica also
	// duplicates the chain's cache footprint, and on a starved device
	// that displacement is repaid token-for-token in evicted blocks and
	// spill/reload churn. This is exactly the signal the prefix-affinity
	// router preserves and least-loaded ignores, so the regret of a
	// prefix-blind policy is visible in its own units (tokens of work).
	shared := int64(prefixLen)
	if p := int64(inLen); shared > p {
		shared = p
	}
	best := 0
	for i := range cands {
		covered := int64(cands[i].PrefixTokens)
		if covered > shared {
			covered = shared
		}
		cands[i].Cost = cands[i].QueuedTokens + int64(inLen) - covered + (shared - covered)
		if cands[i].Cost < cands[best].Cost ||
			(cands[i].Cost == cands[best].Cost && cands[i].Replica < cands[best].Replica) {
			best = i
		}
	}
	regret := cands[chosenPos].Cost - cands[best].Cost
	r.foldRoute(req, cands[chosenPos].Replica, regret, stage, requeue)

	d := r.decision(DecisionRoute, t, int32(req), policy)
	d.Class = class
	d.Chosen, d.Best, d.Regret = cands[chosenPos].Replica, cands[best].Replica, regret
	d.Stage, d.Requeue = stage, requeue
	// Candidate snapshot: chosen first, then the k cheapest others
	// (cost, then replica index, ascending). k is small, so repeated
	// linear selection beats sorting a scratch copy.
	d.Cand[0] = cands[chosenPos]
	n := 1
	for n < r.topK+1 && n < len(cands) {
		sel := -1
		for i := range cands {
			if i == chosenPos || taken(d.Cand[:n], cands[i].Replica) {
				continue
			}
			if sel < 0 || cands[i].Cost < cands[sel].Cost ||
				(cands[i].Cost == cands[sel].Cost && cands[i].Replica < cands[sel].Replica) {
				sel = i
			}
		}
		if sel < 0 {
			break
		}
		d.Cand[n] = cands[sel]
		n++
	}
	d.NCand = uint8(n)
}

// foldRoute counts one routing decision and makes it req's latest.
func (r *Recorder) foldRoute(req int, chosen int32, regret int64, stage uint8, requeue bool) {
	f := &r.regret
	f.decisions++
	f.regretTokens += regret
	if requeue {
		f.requeues++
	}
	if stage == 1 || stage == 2 {
		f.stageDecision[stage]++
		f.stageTokens[stage] += regret
	}
	latest := int32(pendingZero)
	if regret > 0 {
		f.records = append(f.records, regretRecord{chosen: chosen, regret: regret})
		latest = int32(len(f.records))
	}
	if req < 0 {
		return
	}
	if n := req + 1; n > len(f.latest) {
		f.latest = append(f.latest, make([]int32, n-len(f.latest))...)
	}
	f.latest[req] = latest
}

// Handoff records a disaggregated prefill->decode KV transfer: the
// request's cache moves from replica `from` to `to`, taking d of link
// time for `bytes` bytes, starting at t (the prefill completion).
func (r *Recorder) Handoff(from, to, req int, class string, t simtime.Time, d simtime.Duration, bytes int64) {
	if !r.Spans() {
		return
	}
	r.push(Event{Kind: EvHandoff, Replica: int32(to), Req: int32(req),
		Time: t, Dur: d, A: bytes, B: int64(from), Class: class})
}

func taken(cands []Candidate, replica int32) bool {
	for i := range cands {
		if cands[i].Replica == replica {
			return true
		}
	}
	return false
}

// Admission records one admission verdict.
func (r *Recorder) Admission(t simtime.Time, req int, class, policy string, accepted bool, reason RejectReason) {
	if r == nil {
		return
	}
	d := r.decision(DecisionAdmission, t, int32(req), policy)
	d.Class, d.Aux = class, int64(reason)
	if accepted {
		d.Chosen = 1
	}
}

// Scale records one autoscaler tick: committed replicas before,
// the raw desired count, and the clamped target actually applied.
func (r *Recorder) Scale(t simtime.Time, policy string, before, desired, clamped int) {
	if r == nil {
		return
	}
	d := r.decision(DecisionScale, t, -1, policy)
	d.Chosen, d.Aux, d.Regret = int32(clamped), int64(before), int64(desired)
}

// Fleet records one injected fleet event; target is the affected
// replica (fail/drain) or the requested fleet size (scale).
func (r *Recorder) Fleet(t simtime.Time, kind string, target int) {
	if r == nil {
		return
	}
	r.decision(DecisionFleet, t, -1, kind).Chosen = int32(target)
}

// Outcome attributes a routed request's realized latency back to its
// latest routing decision. A request takes one outcome (Outcome or
// OutcomeRejected) per route: a call with no route since the last one
// is ignored.
func (r *Recorder) Outcome(req int, ttft, tpot simtime.Duration) {
	if r == nil {
		return
	}
	f := &r.regret
	switch i := f.take(req); {
	case i == pendingZero:
		f.completedZero++
		f.ttftZero += ttft.Seconds()
		f.tpotZero += tpot.Seconds()
	case i > 0:
		o := &f.records[i-1]
		o.ttft, o.tpot, o.done = ttft, tpot, true
	}
}

// OutcomeRejected marks a routed request as ultimately rejected, so
// regret attribution skips its (meaningless) latency.
func (r *Recorder) OutcomeRejected(req int) {
	if r == nil {
		return
	}
	f := &r.regret
	if i := f.take(req); i > 0 {
		f.records[i-1].rejected = true
	}
}

// take returns and clears req's latest pending routing decision (see
// regretFold.latest).
func (f *regretFold) take(req int) int32 {
	if req < 0 || req >= len(f.latest) {
		return 0
	}
	i := f.latest[req]
	f.latest[req] = 0
	return i
}

// RegretSummary aggregates counterfactual routing regret for one
// policy over a run. Token regret converts to seconds at each chosen
// replica's realized serving rate, so "routing to replica 3 instead of
// 7 cost 180 ms" is read directly off the summary.
type RegretSummary struct {
	Policy    string
	Decisions int // routing decisions scored
	Regretful int // decisions that left a strictly cheaper replica on the table

	TotalRegretTokens int64
	TotalRegretSec    float64
	MeanRegretSec     float64 // over all decisions
	MaxRegretSec      float64

	// Realized latency split by decision quality: requests routed with
	// zero regret vs. those routed past a cheaper alternative. The gap
	// is the measured price of the policy's bad picks.
	MeanTTFTZeroSec    float64
	MeanTTFTRegretSec  float64
	MeanTPOTZeroSec    float64
	MeanTPOTRegretSec  float64
	CompletedZero      int
	CompletedRegretful int

	// Requeues counts routing decisions re-issued for backlog displaced
	// by a drain or failure; RateFallbacks counts regretful decisions
	// whose chosen replica never served (realized rate <= 0), priced at
	// the fleet-mean rate instead of silently contributing zero seconds.
	Requeues      int
	RateFallbacks int

	// Per-stage split of disaggregated routing decisions (stage 1 =
	// prefill placement, stage 2 = decode placement); unified decisions
	// appear in neither.
	Stage1Decisions    int
	Stage2Decisions    int
	Stage1RegretTokens int64
	Stage2RegretTokens int64
}

// RegretfulFrac returns the fraction of routing decisions that left a
// cheaper replica on the table.
func (r RegretSummary) RegretfulFrac() float64 {
	if r.Decisions == 0 {
		return 0
	}
	return float64(r.Regretful) / float64(r.Decisions)
}

// FinalizeRegret folds the routing outcomes into a summary. rate maps
// a replica slot to its realized serving rate in tokens/second (used
// to convert token regret into seconds). A chosen replica with a
// non-positive rate — typically one that failed before serving — falls
// back to fleetMean so its regret still prices in seconds instead of
// silently deflating the means; such decisions are counted in
// RateFallbacks. When fleetMean is also non-positive the tokens still
// count but the seconds stay zero.
func (r *Recorder) FinalizeRegret(rate func(replica int) float64, fleetMean float64) *RegretSummary {
	if r == nil || r.regret.decisions == 0 {
		return nil
	}
	f := &r.regret
	s := &RegretSummary{
		Policy:             r.routePolicy,
		Decisions:          f.decisions,
		Regretful:          len(f.records),
		TotalRegretTokens:  f.regretTokens,
		CompletedZero:      f.completedZero,
		Requeues:           f.requeues,
		Stage1Decisions:    f.stageDecision[1],
		Stage2Decisions:    f.stageDecision[2],
		Stage1RegretTokens: f.stageTokens[1],
		Stage2RegretTokens: f.stageTokens[2],
	}
	var ttftReg, tpotReg float64
	for i := range f.records {
		o := &f.records[i]
		var sec float64
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
		if o.done && !o.rejected {
			s.CompletedRegretful++
			ttftReg += o.ttft.Seconds()
			tpotReg += o.tpot.Seconds()
		}
	}
	s.MeanRegretSec = s.TotalRegretSec / float64(s.Decisions)
	if s.CompletedZero > 0 {
		s.MeanTTFTZeroSec = f.ttftZero / float64(s.CompletedZero)
		s.MeanTPOTZeroSec = f.tpotZero / float64(s.CompletedZero)
	}
	if s.CompletedRegretful > 0 {
		s.MeanTTFTRegretSec = ttftReg / float64(s.CompletedRegretful)
		s.MeanTPOTRegretSec = tpotReg / float64(s.CompletedRegretful)
	}
	return s
}
