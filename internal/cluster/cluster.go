// Package cluster simulates a multi-replica LLM serving deployment: a
// shared-clock, discrete-event layer that fans one arrival stream out
// over N independent single-instance simulators (internal/core) through
// an admission gate and a pluggable router.
//
// The pipeline per arrival is
//
//	arrival -> admission -> routing -> replica -> per-request record
//
// Every replica is advanced only as far as the next arrival's timestamp
// before the routing decision is taken, so load signals (queued tokens,
// queued requests) are exact at the routing instant and the whole
// cluster behaves as one discrete-event simulation over a shared clock.
//
// The fleet is dynamic: an optional Autoscaler resizes it on a
// simulated-time tick, and injected fleet events (workload.FleetEvent)
// fail, drain, or scale replicas mid-run. Replicas move through a
// lifecycle — provisioning (cold start), active (routable), draining
// (finishing in-flight work, no new traffic), and retired or failed —
// and the fleet's composition over time is recorded as a timeline.
//
// Runs are deterministic: the same configuration, trace, events, and
// seed produce a bit-identical report, sequential or inside a parallel
// sweep.
package cluster

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Role assigns a replica to a serving pool in a disaggregated
// deployment. The zero value is RoleUnified: the replica serves both
// prefill and decode, the only mode before disaggregation existed.
type Role uint8

const (
	// RoleUnified serves requests end to end on one replica.
	RoleUnified Role = iota
	// RolePrefill serves only the prompt phase; the KV cache is then
	// handed off to a decode replica over the interconnect.
	RolePrefill
	// RoleDecode serves only the generation phase, starting from a
	// handed-off KV cache.
	RoleDecode
)

func (r Role) String() string {
	switch r {
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	default:
		return "unified"
	}
}

// Config assembles a cluster.
type Config struct {
	// Replicas is the initial serving instance count (>= 1).
	Replicas int

	// Roles assigns each initial slot to a serving pool; nil means every
	// replica is RoleUnified. When any slot is prefill or decode the
	// cluster runs disaggregated: both pools must be non-empty and no
	// slot may stay unified. Slots added by scaling keep their pool's
	// role.
	Roles []Role

	// NewReplica builds the replica in slot i with an empty trace;
	// requests are fed incrementally as the cluster routes them. Slots
	// beyond the initial count are created by autoscaling and fleet
	// events, so the factory must accept any non-negative index. role is
	// the pool the slot serves (RoleUnified outside disaggregation);
	// decode replicas should be built generation-only (sched.SkipPrefill)
	// since their prompts arrive as handed-off KV caches.
	NewReplica func(i int, role Role) (*core.Simulator, error)

	// ReplicaCost weighs slot i's capacity cost (the hardware-relative
	// factor of the cost proxy: replica-seconds x weight). nil charges
	// every replica 1.0.
	ReplicaCost func(i int, role Role) float64

	// Router places admitted requests; nil defaults to round-robin. In a
	// disaggregated cluster it is the stage-1 (prefill) router.
	Router Router

	// DecodeRouter places the decode stage of a disaggregated request
	// once its prefill completes; nil defaults to round-robin. Unused
	// outside disaggregation.
	DecodeRouter Router

	// Admission gates arrivals; nil defaults to admit-all.
	Admission Admission

	// Classes supplies per-class SLO targets for goodput accounting.
	// Classes absent from the trace are ignored; trace classes absent
	// here get no SLO (always attained).
	Classes []workload.Class

	// Autoscaler, when non-nil, re-evaluates the fleet size every
	// ScaleTick of simulated time, clamped to [MinReplicas,
	// MaxReplicas]. Unified fleets only; disaggregated clusters scale
	// per pool through PrefillScaler/DecodeScaler.
	Autoscaler Autoscaler

	// PrefillScaler / DecodeScaler resize the two pools of a
	// disaggregated cluster independently on the shared ScaleTick: the
	// prefill view's IntervalAttained counts completions that met their
	// class TTFT target, the decode view's counts TPOT attainment, so an
	// slo-target policy scales each pool against the latency phase it
	// owns. Set both or neither.
	PrefillScaler Autoscaler
	DecodeScaler  Autoscaler

	// ScaleTick is the autoscaler evaluation interval (> 0 when any
	// scaler is set).
	ScaleTick simtime.Duration

	// MinReplicas / MaxReplicas clamp scaling decisions (autoscaler
	// ticks and scale events). Zero values default to 1 and
	// max(Replicas, MinReplicas) respectively.
	MinReplicas int
	MaxReplicas int

	// Per-pool clamps for disaggregated scaling. Zero values default to
	// 1 and max(initial pool size, min) respectively; a unified fleet
	// must leave all four zero.
	PrefillMin int
	PrefillMax int
	DecodeMin  int
	DecodeMax  int

	// ProvisionDelay is the cold-start time of a scaled-up replica:
	// provisioned at t, it starts serving at t+ProvisionDelay.
	ProvisionDelay simtime.Duration

	// Events are fleet changes injected at fixed simulated times
	// (failures, planned scales, drains). Applied in time order, stable
	// on spec order; events after the cluster drains are ignored.
	Events []workload.FleetEvent

	// Obs, when non-nil, records routing/admission/autoscaling decision
	// records with counterfactual routing regret, plus whatever span
	// detail the recorder is configured for. The same recorder should
	// be passed to every replica's core.Options so spans and decisions
	// land in one timeline.
	Obs *obs.Recorder

	// StreamMetrics drops the per-request record table. Every run folds
	// each request's outcome into the same online accumulator at its
	// terminal event, so counts, token totals, rates, and means do not
	// depend on this flag; it decides only two things: whether
	// Report.Records keeps one record per arrival (false) or is nil
	// (true), and whether percentiles are exact nearest-rank values
	// computed from those records (false) or come from the
	// accumulator's sketch, within metrics.SketchRelError (true). With
	// it set, no per-request state outlives its request — the
	// million-request mode. Leave false for golden runs, which pin
	// exact percentiles.
	StreamMetrics bool

	// OnRecord, when non-nil, receives each request's final record at
	// its terminal event (completion or rejection, in completion order —
	// not arrival order). This is the streaming per-request TSV sink:
	// with StreamMetrics it replaces the post-hoc Report.Records dump.
	// The record is recycled after the callback returns, so the callback
	// must not retain the pointer.
	OnRecord func(*metrics.RequestRecord)
}

// FieldError reports a Config field that breaks a cluster rule.
type FieldError struct {
	Field  string // Config field name, e.g. "Replicas"
	Value  any    // the offending value
	Reason string // the rule it breaks
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("cluster: %s=%v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the configuration against every rule New enforces,
// except that a replica factory is set, without building anything: the
// fleet shape, the replica and per-pool scaling bounds, the scalers'
// tick, and the fleet events. It returns nil or a *FieldError naming
// the first offending field.
func (cfg *Config) Validate() error {
	if cfg.Replicas < 1 {
		return &FieldError{"Replicas", cfg.Replicas, "must be >= 1"}
	}
	if cfg.Roles != nil && len(cfg.Roles) != cfg.Replicas {
		return &FieldError{"Roles", len(cfg.Roles), fmt.Sprintf("need one role per initial replica (%d)", cfg.Replicas)}
	}
	if (cfg.PrefillScaler == nil) != (cfg.DecodeScaler == nil) {
		return &FieldError{"PrefillScaler", cfg.PrefillScaler != nil, "per-pool autoscaling needs both a prefill and a decode scaler"}
	}
	if (cfg.Autoscaler != nil || cfg.PrefillScaler != nil) && cfg.ScaleTick <= 0 {
		return &FieldError{"ScaleTick", cfg.ScaleTick, "autoscaling needs a positive evaluation tick"}
	}
	prefillN, decodeN, unifiedN := cfg.poolSizes()
	if prefillN > 0 || decodeN > 0 {
		switch {
		case unifiedN > 0:
			return &FieldError{"Roles", unifiedN, "a disaggregated fleet cannot mix unified replicas with prefill/decode pools"}
		case prefillN == 0 || decodeN == 0:
			return &FieldError{"Roles", fmt.Sprintf("%d/%d", prefillN, decodeN),
				"a disaggregated fleet needs at least one prefill and one decode replica"}
		case cfg.Autoscaler != nil:
			return &FieldError{"Autoscaler", cfg.Autoscaler.Name(),
				"a disaggregated fleet scales per pool (set PrefillScaler and DecodeScaler)"}
		}
		for _, ev := range cfg.Events {
			if ev.Kind == workload.EventScale {
				return &FieldError{"Events", ev.String(),
					"scale events are ambiguous on a disaggregated fleet (use the per-pool autoscaler)"}
			}
		}
		if _, _, err := poolClamps("PrefillMin", "PrefillMax", cfg.PrefillMin, cfg.PrefillMax, prefillN); err != nil {
			return err
		}
		if _, _, err := poolClamps("DecodeMin", "DecodeMax", cfg.DecodeMin, cfg.DecodeMax, decodeN); err != nil {
			return err
		}
	} else {
		if cfg.PrefillScaler != nil {
			return &FieldError{"PrefillScaler", cfg.PrefillScaler.Name(), "per-pool autoscalers require a disaggregated fleet"}
		}
		for _, b := range []struct {
			field string
			n     int
		}{{"PrefillMin", cfg.PrefillMin}, {"PrefillMax", cfg.PrefillMax}, {"DecodeMin", cfg.DecodeMin}, {"DecodeMax", cfg.DecodeMax}} {
			if b.n != 0 {
				return &FieldError{b.field, b.n, "per-pool replica bounds need a disaggregated fleet (prefill and decode roles)"}
			}
		}
	}
	if _, _, err := poolClamps("MinReplicas", "MaxReplicas", cfg.MinReplicas, cfg.MaxReplicas, cfg.Replicas); err != nil {
		return err
	}
	if cfg.ProvisionDelay < 0 {
		return &FieldError{"ProvisionDelay", cfg.ProvisionDelay, "must not be negative"}
	}
	for _, ev := range cfg.Events {
		if err := ev.Validate(); err != nil {
			return &FieldError{"Events", ev.String(), err.Error()}
		}
	}
	return nil
}

// poolSizes counts the initial slots of each role.
func (cfg *Config) poolSizes() (prefill, decode, unified int) {
	if cfg.Roles == nil {
		return 0, 0, cfg.Replicas
	}
	for _, role := range cfg.Roles {
		switch role {
		case RolePrefill:
			prefill++
		case RoleDecode:
			decode++
		default:
			unified++
		}
	}
	return prefill, decode, unified
}

// lifecycle is a replica's position in the dynamic-fleet state machine.
type lifecycle int

const (
	stateProvisioning lifecycle = iota // cold-starting, not yet routable
	stateActive                        // serving traffic
	stateDraining                      // finishing in-flight work, not routable
	stateRetired                       // drained and removed
	stateFailed                        // killed by a failure event
)

func (l lifecycle) String() string {
	switch l {
	case stateProvisioning:
		return "provisioning"
	case stateActive:
		return "active"
	case stateDraining:
		return "draining"
	case stateRetired:
		return "retired"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("lifecycle(%d)", int(l))
	}
}

// replica is one fleet slot: the simulator plus its lifecycle and cost
// bookkeeping. Slots are append-only; retired replicas keep their index
// so request records and TSVs stay stable.
type replica struct {
	sim     *core.Simulator
	state   lifecycle
	role    Role
	cost    float64      // capacity-cost weight (replica-seconds multiplier)
	created simtime.Time // provisioning start; cost accrues from here
	readyAt simtime.Time // provisioning -> active transition time
	retired simtime.Time // retirement/failure instant, once reached

	// Routing-view bookkeeping (see view.go): the slot's position in its
	// role's view (-1 when not routable) and whether its load signals
	// changed since the views last read them.
	viewPos int32
	dirty   bool
}

// Cluster is one configured multi-replica serving simulation.
type Cluster struct {
	cfg       Config
	replicas  []*replica
	admission Admission
	scaler    Autoscaler
	minRep    int
	maxRep    int
	slos      map[string]metrics.SLO

	// Request accounting, the same in both metric modes: in-flight
	// records live in a recycled pool keyed by request ID until their
	// terminal event folds them into accum; routedTo counts completed
	// placements per slot (the per-replica Requests column) and
	// prefillSrc holds each in-flight disaggregated request's prefill
	// slot. Retained mode (StreamMetrics off) additionally copies every
	// terminal record into records, indexed by request ID; hint sizes
	// that table.
	accum      *metrics.RequestAccumulator
	inflight   map[int]*metrics.RequestRecord
	recFree    []*metrics.RequestRecord
	routedTo   []int
	prefillSrc map[int]int32
	hint       int
	records    []metrics.RequestRecord

	// Disaggregation state: per-pool scalers and clamps, per-slot
	// placement counters, and the handoff transfer rollup.
	disagg        bool
	prefillScaler Autoscaler
	decodeScaler  Autoscaler
	prefMin       int
	prefMax       int
	decMin        int
	decMax        int
	placed        []int
	handoffCount  int
	handoffBytes  int64
	handoffLink   simtime.Duration

	// Replica stepping is driven off a winner tree of next-event times,
	// so advancing the cluster to an instant touches only replicas with
	// events before it instead of scanning all of them.
	events eventTree

	// Control-event state: fleet events (sorted, cursor-consumed),
	// the next autoscaler tick, and the count of replicas cold-starting
	// (so the activation scan is skipped when none are).
	fleetEvents  []workload.FleetEvent
	fleetCursor  int
	nextTick     simtime.Time
	provisioning int

	// Fleet telemetry: the lifecycle-composition timeline and counters
	// for failure handling.
	timeline []metrics.FleetPoint
	requeued int

	// SLO attainment over the current autoscaler tick interval. Unified
	// fleets track whole-SLO attainment; disaggregated fleets split it
	// into the TTFT component (prefill pool signal) and the TPOT
	// component (decode pool signal).
	intervalCompleted int
	intervalAttained  int
	intervalTTFT      int
	intervalTPOT      int

	// Routing views, one per Role (see view.go), each with its router:
	// dirty lists the slots stepped or pushed since the views last
	// re-read them, prefixProbe is set once any replica caches
	// prefixes, and fastAdmission is the admission policy when it
	// answers from the stage-1 view's sums.
	views         [3]routeView
	dirty         []int32
	prefixProbe   bool
	fastAdmission viewAdmission

	candBuf []obs.Candidate
}

// New validates the configuration and builds the initial replicas.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NewReplica == nil {
		return nil, fmt.Errorf("cluster: nil replica factory")
	}
	prefillN, decodeN, _ := cfg.poolSizes()
	disagg := prefillN > 0
	c := &Cluster{
		cfg:           cfg,
		admission:     cfg.Admission,
		scaler:        cfg.Autoscaler,
		slos:          map[string]metrics.SLO{},
		disagg:        disagg,
		dirty:         make([]int32, 0, cfg.Replicas),
		prefillScaler: cfg.PrefillScaler,
		decodeScaler:  cfg.DecodeScaler,
	}
	// Validate has checked every bound, so the clamps cannot fail here.
	c.minRep, c.maxRep, _ = poolClamps("MinReplicas", "MaxReplicas", cfg.MinReplicas, cfg.MaxReplicas, cfg.Replicas)
	if disagg {
		c.prefMin, c.prefMax, _ = poolClamps("PrefillMin", "PrefillMax", cfg.PrefillMin, cfg.PrefillMax, prefillN)
		c.decMin, c.decMax, _ = poolClamps("DecodeMin", "DecodeMax", cfg.DecodeMin, cfg.DecodeMax, decodeN)
	}
	router, decodeRouter := cfg.Router, cfg.DecodeRouter
	if router == nil {
		router = &roundRobin{}
	}
	c.views[c.entryRole()].setRouter(router)
	if disagg {
		if decodeRouter == nil {
			decodeRouter = &roundRobin{}
		}
		c.views[RoleDecode].setRouter(decodeRouter)
	}
	if c.admission == nil {
		c.admission = admitAll{}
	}
	c.fastAdmission, _ = c.admission.(viewAdmission)
	for _, cl := range cfg.Classes {
		c.slos[cl.Name] = metrics.SLO{TTFT: cl.TTFT, TPOT: cl.TPOT}
	}
	c.fleetEvents = append([]workload.FleetEvent(nil), cfg.Events...)
	workload.SortFleetEvents(c.fleetEvents)
	for i := 0; i < cfg.Replicas; i++ {
		role := RoleUnified
		if cfg.Roles != nil {
			role = cfg.Roles[i]
		}
		if _, err := c.addReplica(0, stateActive, role); err != nil {
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
	}
	return c, nil
}

// poolClamps validates and defaults one pool's scaling bounds [lo, hi]
// around its initial size: a zero lo means 1, a zero hi max(initial,
// lo). loField and hiField name the bounds' Config fields.
func poolClamps(loField, hiField string, lo, hi, initial int) (int, int, error) {
	if lo < 0 {
		return 0, 0, &FieldError{loField, lo, "replica bound must not be negative"}
	}
	if hi < 0 {
		return 0, 0, &FieldError{hiField, hi, "replica bound must not be negative"}
	}
	lo = max(lo, 1)
	if hi == 0 {
		hi = max(initial, lo)
	}
	if hi < lo {
		return 0, 0, &FieldError{hiField, hi, fmt.Sprintf("below the minimum %d", lo)}
	}
	if initial > hi {
		return 0, 0, &FieldError{hiField, hi, fmt.Sprintf("below the %d initial replicas", initial)}
	}
	return lo, hi, nil
}

// addReplica appends a fleet slot in the given lifecycle state and pool.
func (c *Cluster) addReplica(t simtime.Time, state lifecycle, role Role) (*replica, error) {
	i := len(c.replicas)
	sim, err := c.cfg.NewReplica(i, role)
	if err != nil {
		return nil, err
	}
	sim.OnRequestComplete = c.complete
	sim.OnRequestReject = c.reject
	// The completion/rejection hooks above are the only consumers of
	// per-request state, so each replica can drop its delivered records
	// and per-iteration log as it goes.
	sim.StreamMetrics()
	cost := 1.0
	if c.cfg.ReplicaCost != nil {
		cost = c.cfg.ReplicaCost(i, role)
	}
	rep := &replica{sim: sim, role: role, cost: cost, created: t, viewPos: -1}
	c.replicas = append(c.replicas, rep)
	c.placed = append(c.placed, 0)
	c.routedTo = append(c.routedTo, 0)
	c.setState(i, state)
	if sim.KV().Config().Prefix != kvcache.PrefixOff {
		c.prefixProbe = true
	}
	if state == stateProvisioning {
		c.provisioning++
	}
	return rep, nil
}

// recordChunk is how many in-flight records the pool allocates at once.
const recordChunk = 64

// newRecord opens one arrival's record: a record recycled from the free
// pool, tracked in the in-flight map until its terminal event. Retained
// mode also appends an ID-ordered placeholder to the records table,
// which finish overwrites with the terminal record.
func (c *Cluster) newRecord(r workload.Request) *metrics.RequestRecord {
	if len(c.recFree) == 0 {
		// Grow the pool a chunk at a time: saturated runs hold thousands
		// of requests in flight, and one allocation each would show.
		chunk := make([]metrics.RequestRecord, recordChunk)
		for i := range chunk {
			c.recFree = append(c.recFree, &chunk[i])
		}
	}
	rec := c.recFree[len(c.recFree)-1]
	c.recFree = c.recFree[:len(c.recFree)-1]
	*rec = metrics.RequestRecord{
		ID: r.ID, Class: r.Class, Replica: -1,
		InputLen: r.InputLen, OutputLen: r.OutputLen,
		Arrival: r.Arrival,
		Session: r.Session, Turn: r.Turn, SessionTurns: r.SessionTurns,
	}
	c.inflight[r.ID] = rec
	if !c.cfg.StreamMetrics {
		if c.records == nil {
			c.records = make([]metrics.RequestRecord, 0, c.hint)
		}
		c.records = append(c.records, *rec)
	}
	return rec
}

// finish closes a record at its terminal event (completion or
// rejection): fold it into the accumulator, hand it to the row sink,
// keep it in the retained table, and recycle it.
func (c *Cluster) finish(rec *metrics.RequestRecord) {
	c.accum.Observe(rec)
	if c.cfg.OnRecord != nil {
		c.cfg.OnRecord(rec)
	}
	if !c.cfg.StreamMetrics {
		c.records[rec.ID] = *rec
	}
	delete(c.inflight, rec.ID)
	delete(c.prefillSrc, rec.ID)
	c.recFree = append(c.recFree, rec)
}

// complete records one request finishing on its replica (placement was
// already recorded at routing time) and feeds the autoscaler's
// per-interval SLO attainment signal. The attainment check only runs
// when a scaler will read it, keeping static-fleet completions as
// cheap as before.
//
// In a disaggregated cluster, a completion on a prefill replica is the
// end of stage 1: the request's first token is recorded, its KV cache
// is handed off to a decode replica (priced as a per-request link
// transfer), and the decode stage is routed and pushed. Only the
// decode completion finalizes the record.
func (c *Cluster) complete(f sched.Finished) {
	id := f.Req.ID
	rec := c.inflight[id]
	if rec == nil {
		return
	}
	if c.disagg && c.replicas[rec.Replica].role == RolePrefill && rec.OutputLen > 1 {
		c.handoff(f, rec)
		return
	}
	if c.disagg && c.replicas[rec.Replica].role == RoleDecode {
		// Stage 2: the first token and cached-token count belong to the
		// prefill stage; only the completion instant is the decode's.
		rec.Completed = f.Completed
	} else {
		rec.FirstToken = f.FirstToken
		rec.Completed = f.Completed
		rec.CachedTokens = f.CachedTokens
	}
	if c.cfg.Obs != nil {
		c.cfg.Obs.Outcome(id, rec.TTFT(), rec.TPOT())
	}
	if c.scaler != nil {
		c.intervalCompleted++
		if rec.MeetsSLO(c.slos[rec.Class]) {
			c.intervalAttained++
		}
	}
	if c.prefillScaler != nil {
		slo := c.slos[rec.Class]
		c.intervalCompleted++
		if !(slo.TTFT > 0 && rec.TTFT() > slo.TTFT) {
			c.intervalTTFT++
		}
		if !(slo.TPOT > 0 && rec.TPOT() > slo.TPOT) {
			c.intervalTPOT++
		}
	}
	c.routedTo[rec.Replica]++
	c.finish(rec)
}

// handoff finishes stage 1 of a disaggregated request: record the
// first token, price the KV transfer to a decode replica through the
// network model, and push the decode stage with its arrival delayed by
// the transfer. With no active decode replica the request is rejected
// (the decode-pool 503).
func (c *Cluster) handoff(f sched.Finished, rec *metrics.RequestRecord) {
	id := f.Req.ID
	rec.FirstToken = f.FirstToken
	rec.CachedTokens = f.CachedTokens
	from := rec.Replica

	v := c.routable(rec.Class, RoleDecode)
	if len(v.states) == 0 {
		rec.Rejected = true
		rec.Replica = -1
		rec.RejectReason = obs.RejectNoReplica.String()
		c.cfg.Obs.Reject(-1, id, rec.Class, f.Completed, obs.RejectNoReplica)
		c.cfg.Obs.OutcomeRejected(id)
		c.finish(rec)
		return
	}
	dr := workload.Request{
		ID: id, InputLen: rec.InputLen, OutputLen: rec.OutputLen,
		Class: rec.Class,
	}
	idx := v.route(dr)
	if idx < 0 || idx >= len(v.states) {
		idx = 0 // a misbehaving decode router cannot error out of a completion callback
	}
	target := v.states[idx].Index
	bytes, dur := c.priceHandoff(target, rec.InputLen)
	dr.Arrival = f.Completed.Add(dur)
	c.handoffCount++
	c.handoffBytes += bytes
	c.handoffLink += dur
	c.prefillSrc[id] = int32(from)
	if c.cfg.Obs != nil {
		c.cfg.Obs.Handoff(from, target, id, rec.Class, f.Completed, dur, bytes)
		c.recordRoute(f.Completed, dr, v, idx, 2, false)
	}
	rec.Replica = target
	if err := c.pushTo(target, dr); err != nil {
		// Push on an empty-trace replica only fails on ID misuse, which
		// the cluster's ID discipline rules out; surface via reject.
		rec.Rejected = true
		rec.Replica = -1
		rec.RejectReason = obs.RejectNoReplica.String()
		c.finish(rec)
	}
}

// priceHandoff prices moving one request's KV cache (inLen prompt
// tokens) onto decode replica `to`: the cache is sharded over the
// replica's NPUs, so the wire time is one P2P transfer of the
// per-device shard.
func (c *Cluster) priceHandoff(to, inLen int) (bytes int64, dur simtime.Duration) {
	sim := c.replicas[to].sim
	bytes = sim.KVBytesPerToken() * int64(inLen)
	topo := sim.Topology()
	npus := int64(topo.NPUNodes())
	if npus < 1 {
		npus = 1
	}
	return bytes, topo.P2P(bytes / npus)
}

// pushTo places a request on slot target, counting the placement.
func (c *Cluster) pushTo(target int, r workload.Request) error {
	if err := c.replicas[target].sim.Push(r); err != nil {
		return err
	}
	c.placed[target]++
	c.refreshEvent(target)
	return nil
}

// reject records a replica's scheduler refusing a request as unservable
// (e.g. prompt longer than the model context), so it surfaces as a
// rejection in the report instead of a request that never completed.
func (c *Cluster) reject(r sched.Rejected) {
	id := r.Req.ID
	rec := c.inflight[id]
	if rec == nil {
		return
	}
	rec.Rejected = true
	rec.Replica = -1
	rec.RejectReason = obs.RejectUnservable.String()
	c.cfg.Obs.Admission(r.Time, id, r.Req.Class, "scheduler", false, obs.RejectUnservable)
	c.cfg.Obs.OutcomeRejected(id)
	c.finish(rec)
}

// rejectArrival drops one arrival before routing, recording the verdict
// and its reason in both the request record and the decision trace.
func (c *Cluster) rejectArrival(rec *metrics.RequestRecord, r workload.Request, policy string, reason obs.RejectReason) {
	rec.Rejected = true
	rec.RejectReason = reason.String()
	c.cfg.Obs.Admission(r.Arrival, r.ID, r.Class, policy, false, reason)
	c.cfg.Obs.Reject(-1, r.ID, r.Class, r.Arrival, reason)
	c.finish(rec)
}

// recordRoute snapshots one routing decision over view v, its
// candidate set and its router's name, for the decision trace. The
// candidate buffer is recycled across calls. stage and requeue tag
// disaggregated and displaced-backlog routes.
func (c *Cluster) recordRoute(t simtime.Time, r workload.Request, v *routeView, idx int, stage uint8, requeue bool) {
	cands := c.candBuf[:0]
	for _, s := range v.states {
		// The regret cost model scores device-resident coverage only:
		// host-spilled prefix blocks still price a reload, so counting
		// them as free coverage would hide the churn a prefix-blind
		// router causes.
		cands = append(cands, obs.Candidate{
			Replica: int32(s.Index), QueuedTokens: s.QueuedTokens,
			QueuedRequests: int32(s.QueuedRequests), PrefixTokens: int32(s.DevicePrefixTokens),
		})
	}
	c.candBuf = cands
	c.cfg.Obs.Route(t, r.ID, r.Class, v.router.Name(), r.InputLen, r.PrefixLen, cands, idx, stage, requeue)
}

// Run simulates the arrival stream to completion over the cluster.
func (c *Cluster) Run(reqs []workload.Request) (*Report, error) {
	return c.RunContext(context.Background(), reqs)
}

// RunContext simulates the arrival stream, checking ctx at arrival and
// iteration boundaries. Request IDs are reassigned to arrival order
// (the cluster-global ID space). A trace already in arrival order —
// the generators' native output — is detected in O(n) and skips the
// sort entirely.
func (c *Cluster) RunContext(ctx context.Context, reqs []workload.Request) (*Report, error) {
	arrivals := append([]workload.Request(nil), reqs...)
	if workload.IsSortedByArrival(arrivals) {
		for i := range arrivals {
			arrivals[i].ID = i
		}
	} else {
		workload.SortByArrival(arrivals)
	}
	next := 0
	return c.run(ctx, arrivalSource{
		pull: func() (workload.Request, bool) {
			if next >= len(arrivals) {
				return workload.Request{}, false
			}
			r := arrivals[next]
			next++
			return r, true
		},
		finish: func() error { return nil },
		hint:   len(arrivals),
	})
}

// RunStream simulates a pull-based arrival stream to completion
// without materializing it. Combined with Config.StreamMetrics this is
// the million-request mode: each request is drawn, routed, and folded
// into the accumulators at its terminal event, so no per-request state
// outlives its request. The stream must yield non-
// decreasing arrival times (every generator in internal/workload
// does); request IDs are reassigned to arrival order.
func (c *Cluster) RunStream(ctx context.Context, s workload.Stream) (*Report, error) {
	hint := 0
	if n, ok := workload.StreamTarget(s); ok {
		hint = n
	}
	return c.run(ctx, arrivalSource{
		pull:   s.Next,
		finish: func() error { return workload.StreamErr(s) },
		hint:   hint,
	})
}

// arrivalSource abstracts where arrivals come from: a sorted slice or
// a pull-based stream. finish reports the source's terminal error once
// pull has returned false; hint sizes preallocations (0 = unknown).
type arrivalSource struct {
	pull   func() (workload.Request, bool)
	finish func() error
	hint   int
}

// run wires the request accounting, fills the event tree, and executes
// the arrival loop.
func (c *Cluster) run(ctx context.Context, src arrivalSource) (*Report, error) {
	c.accum = metrics.NewRequestAccumulator(c.slos)
	c.inflight = make(map[int]*metrics.RequestRecord)
	c.prefillSrc = make(map[int]int32)
	c.hint = src.hint
	if c.scaler != nil || c.prefillScaler != nil {
		c.nextTick = simtime.Time(c.cfg.ScaleTick)
	}
	c.mark(0)
	c.events.init(len(c.replicas))
	for i := range c.replicas {
		c.refreshEvent(i)
	}
	if err := c.loop(ctx, src); err != nil {
		return nil, err
	}
	return c.report(), nil
}

// loop is the simulation loop: arrivals interleaved with control
// events, then a drain.
func (c *Cluster) loop(ctx context.Context, src arrivalSource) error {
	var (
		pending workload.Request
		have    bool
		nextID  int
		last    simtime.Time
	)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !have {
			r, ok := src.pull()
			if !ok {
				break
			}
			if r.Arrival.Before(last) {
				return fmt.Errorf("cluster: stream arrivals out of order: %v after %v", r.Arrival, last)
			}
			last = r.Arrival
			r.ID = nextID
			nextID++
			pending, have = r, true
		}
		// Control events (activations, fleet events, scaler ticks) fire
		// before any arrival at the same instant, so an arrival always
		// sees the fleet the controls produced.
		r := pending
		if ct, ok := c.nextControl(); ok && !r.Arrival.Before(ct) {
			if err := c.advanceTo(ctx, ct); err != nil {
				return err
			}
			if err := c.applyControls(ct); err != nil {
				return err
			}
			continue
		}
		have = false
		// Advance every replica to the arrival instant so the routing
		// and admission signals are exact at time r.Arrival.
		if err := c.advanceTo(ctx, r.Arrival); err != nil {
			return err
		}
		if err := c.routeArrival(r); err != nil {
			return err
		}
	}
	if err := src.finish(); err != nil {
		return err
	}

	// All arrivals placed: drain every replica in event order, still
	// honouring control events (so the scaler can shrink an emptying
	// fleet and late failures still inject).
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		i, ev := c.events.min()
		if ct, ok := c.nextControl(); ok && (ev == simtime.Forever || !ev.Before(ct)) {
			if ev == simtime.Forever && c.provisioning == 0 {
				// Only ticks or events remain and no work is left for
				// them to react to: the run is over.
				break
			}
			if err := c.advanceTo(ctx, ct); err != nil {
				return err
			}
			if err := c.applyControls(ct); err != nil {
				return err
			}
			continue
		}
		if ev == simtime.Forever {
			break
		}
		if _, err := c.replicas[i].sim.Step(); err != nil {
			return err
		}
		c.refreshEvent(i)
	}
	return nil
}

// entryRole is the role arrivals are routed to: the prefill pool in a
// disaggregated cluster, the whole active fleet otherwise.
func (c *Cluster) entryRole() Role {
	if c.disagg {
		return RolePrefill
	}
	return RoleUnified
}

// routeArrival opens one arrival's record and takes it through
// admission and routing onto a replica, with every replica already
// advanced to the arrival instant.
func (c *Cluster) routeArrival(r workload.Request) error {
	v := c.routable(r.CacheKey(), c.entryRole())

	rec := c.newRecord(r)
	// With no routable replica (all failed, draining, or still cold-
	// starting) the arrival has nowhere to go and is rejected — the
	// cluster-level 503. A disaggregated arrival also needs a live
	// decode pool: prefilling a prompt whose cache can never be
	// handed off would only burn capacity.
	if len(v.states) == 0 || (c.disagg && len(c.view(RoleDecode).states) == 0) {
		c.rejectArrival(rec, r, "cluster", obs.RejectNoReplica)
		return nil
	}
	if !c.admit(r, v) {
		c.rejectArrival(rec, r, c.admission.Name(), obs.RejectAdmission)
		return nil
	}
	c.cfg.Obs.Admission(r.Arrival, r.ID, r.Class, c.admission.Name(), true, obs.RejectNone)
	idx := v.route(r)
	if idx < 0 || idx >= len(v.states) {
		return fmt.Errorf("cluster: router %s returned replica %d of %d",
			v.router.Name(), idx, len(v.states))
	}
	var stage uint8
	if c.disagg {
		stage = 1
		// The prefill pool serves only the prompt phase: one output
		// token ends stage 1 and triggers the KV handoff.
		r.OutputLen = 1
	}
	if c.cfg.Obs != nil {
		c.recordRoute(r.Arrival, r, v, idx, stage, false)
	}
	target := v.states[idx].Index
	rec.Replica = target
	return c.pushTo(target, r)
}

// nextControl returns the earliest pending control event: a
// provisioning replica becoming ready, an injected fleet event, or an
// autoscaler tick. ok is false when none are pending.
func (c *Cluster) nextControl() (simtime.Time, bool) {
	t := simtime.Forever
	if c.provisioning > 0 {
		for _, rep := range c.replicas {
			if rep.state == stateProvisioning && rep.readyAt.Before(t) {
				t = rep.readyAt
			}
		}
	}
	if c.fleetCursor < len(c.fleetEvents) && c.fleetEvents[c.fleetCursor].Time.Before(t) {
		t = c.fleetEvents[c.fleetCursor].Time
	}
	if (c.scaler != nil || c.prefillScaler != nil) && c.nextTick.Before(t) {
		t = c.nextTick
	}
	return t, t != simtime.Forever
}

// applyControls applies every control due at or before t, in a fixed
// order — activations, then fleet events, then the scaler tick — and
// records the resulting fleet composition.
func (c *Cluster) applyControls(t simtime.Time) error {
	if c.provisioning > 0 {
		for i, rep := range c.replicas {
			if rep.state == stateProvisioning && !rep.readyAt.After(t) {
				c.setState(i, stateActive)
				c.provisioning--
				c.refreshEvent(i)
			}
		}
	}
	for c.fleetCursor < len(c.fleetEvents) && !c.fleetEvents[c.fleetCursor].Time.After(t) {
		ev := c.fleetEvents[c.fleetCursor]
		c.fleetCursor++
		if err := c.applyFleetEvent(t, ev); err != nil {
			return err
		}
	}
	if (c.scaler != nil || c.prefillScaler != nil) && !c.nextTick.After(t) {
		if err := c.applyTick(t); err != nil {
			return err
		}
		c.nextTick = c.nextTick.Add(c.cfg.ScaleTick)
	}
	c.mark(t)
	return nil
}

// applyTick evaluates the autoscaler(s) against the current fleet view
// and applies the clamped decision. A disaggregated cluster evaluates
// each pool over its own role-filtered view: the prefill view's
// attainment signal is the TTFT component (prefill owns time to first
// token), the decode view's is the TPOT component.
func (c *Cluster) applyTick(t simtime.Time) error {
	if c.disagg {
		return c.applyTickDisagg(t)
	}
	view := FleetView{
		Time:              t,
		IntervalCompleted: c.intervalCompleted,
		IntervalAttained:  c.intervalAttained,
	}
	for _, rep := range c.replicas {
		switch rep.state {
		case stateProvisioning:
			view.Provisioning++
		case stateActive:
			view.Active++
			view.QueuedRequests += rep.sim.QueuedRequests()
			view.QueuedTokens += rep.sim.QueuedTokens()
		case stateDraining:
			view.Draining++
		}
	}
	c.intervalCompleted, c.intervalAttained = 0, 0
	desired := c.scaler.Desired(view)
	clamped := clampReplicas(desired, c.minRep, c.maxRep)
	c.cfg.Obs.Scale(t, c.scaler.Name(), view.Active+view.Provisioning, desired, clamped)
	return c.scaleTo(t, clamped)
}

// applyTickDisagg runs the per-pool scalers: prefill first, then
// decode, each over its own view and clamps.
func (c *Cluster) applyTickDisagg(t simtime.Time) error {
	pref := FleetView{Time: t, IntervalCompleted: c.intervalCompleted, IntervalAttained: c.intervalTTFT}
	dec := FleetView{Time: t, IntervalCompleted: c.intervalCompleted, IntervalAttained: c.intervalTPOT}
	for _, rep := range c.replicas {
		view := &pref
		if rep.role == RoleDecode {
			view = &dec
		}
		switch rep.state {
		case stateProvisioning:
			view.Provisioning++
		case stateActive:
			view.Active++
			view.QueuedRequests += rep.sim.QueuedRequests()
			view.QueuedTokens += rep.sim.QueuedTokens()
		case stateDraining:
			view.Draining++
		}
	}
	c.intervalCompleted, c.intervalTTFT, c.intervalTPOT = 0, 0, 0

	desired := c.prefillScaler.Desired(pref)
	clamped := clampReplicas(desired, c.prefMin, c.prefMax)
	c.cfg.Obs.Scale(t, c.prefillScaler.Name()+"/prefill", pref.Active+pref.Provisioning, desired, clamped)
	if err := c.scalePool(t, clamped, RolePrefill); err != nil {
		return err
	}
	desired = c.decodeScaler.Desired(dec)
	clamped = clampReplicas(desired, c.decMin, c.decMax)
	c.cfg.Obs.Scale(t, c.decodeScaler.Name()+"/decode", dec.Active+dec.Provisioning, desired, clamped)
	return c.scalePool(t, clamped, RoleDecode)
}

// applyFleetEvent applies one injected fleet change.
func (c *Cluster) applyFleetEvent(t simtime.Time, ev workload.FleetEvent) error {
	if c.cfg.Obs != nil {
		target := ev.Replica
		if ev.Kind == workload.EventScale {
			target = ev.Replicas
		}
		c.cfg.Obs.Fleet(t, ev.Kind.String(), target)
	}
	switch ev.Kind {
	case workload.EventScale:
		return c.scaleTo(t, clampReplicas(ev.Replicas, c.minRep, c.maxRep))
	case workload.EventDrain, workload.EventFail:
		if ev.Replica >= len(c.replicas) {
			return fmt.Errorf("cluster: fleet event %s targets replica %d, but the fleet has %d slots at %v",
				ev, ev.Replica, len(c.replicas), t)
		}
		if ev.Kind == workload.EventDrain {
			return c.drainReplica(t, ev.Replica)
		}
		return c.failReplica(t, ev)
	default:
		return fmt.Errorf("cluster: unknown fleet event kind %d", int(ev.Kind))
	}
}

// scaleTo provisions or drains replicas until the committed count
// (active + provisioning) reaches desired. Unified fleets only.
func (c *Cluster) scaleTo(t simtime.Time, desired int) error {
	return c.scalePool(t, desired, RoleUnified)
}

// scalePool provisions or drains replicas of one role until the pool's
// committed count (active + provisioning) reaches desired.
func (c *Cluster) scalePool(t simtime.Time, desired int, role Role) error {
	committed := 0
	for _, rep := range c.replicas {
		if rep.role == role && (rep.state == stateActive || rep.state == stateProvisioning) {
			committed++
		}
	}
	for ; committed < desired; committed++ {
		state := stateActive
		if c.cfg.ProvisionDelay > 0 {
			state = stateProvisioning
		}
		rep, err := c.addReplica(t, state, role)
		if err != nil {
			return err
		}
		rep.readyAt = t.Add(c.cfg.ProvisionDelay)
		c.events.push(simtime.Forever)
	}
	for ; committed > desired; committed-- {
		// Cancel the newest cold-start first (it holds no work), then
		// drain the highest-index active replica — deterministic LIFO
		// within the pool.
		victim := -1
		for i := len(c.replicas) - 1; i >= 0; i-- {
			if c.replicas[i].role == role && c.replicas[i].state == stateProvisioning {
				victim = i
				break
			}
		}
		if victim < 0 {
			for i := len(c.replicas) - 1; i >= 0; i-- {
				if c.replicas[i].role == role && c.replicas[i].state == stateActive {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			return nil
		}
		if err := c.drainReplica(t, victim); err != nil {
			return err
		}
	}
	return nil
}

// drainReplica gracefully removes replica i: a cold-starting replica is
// cancelled outright; an active one stops receiving traffic, migrates
// its not-yet-admitted backlog to the surviving fleet, and retires once
// its admitted (in-flight) work completes — immediately, when idle.
// With no routable survivor the backlog deliberately stays put: unlike
// a failure, a graceful drain never discards work, so the draining
// replica serves its whole queue before retiring.
func (c *Cluster) drainReplica(t simtime.Time, i int) error {
	rep := c.replicas[i]
	switch rep.state {
	case stateProvisioning:
		c.setState(i, stateRetired)
		rep.retired = t
		c.provisioning--
	case stateActive:
		c.setState(i, stateDraining)
		if len(c.view(rep.role).states) > 0 {
			if err := c.redistribute(t, rep.sim.TakePending(), rep.role); err != nil {
				return err
			}
		}
		if _, busy := rep.sim.NextEventTime(); busy {
			c.refreshEvent(i)
		} else {
			c.setState(i, stateRetired)
			rep.retired = t
			c.events.update(i, simtime.Forever)
		}
	}
	return nil
}

// failReplica kills replica i at t: it stops serving instantly and its
// outstanding requests are requeued through the router onto surviving
// replicas (or rejected, per the event). Requeued requests keep their
// original arrival time, so the work lost to the failure counts against
// their latency and SLO attainment.
func (c *Cluster) failReplica(t simtime.Time, ev workload.FleetEvent) error {
	rep := c.replicas[ev.Replica]
	switch rep.state {
	case stateRetired, stateFailed:
		return nil
	case stateProvisioning:
		c.provisioning--
	}
	outstanding := rep.sim.Outstanding()
	c.setState(ev.Replica, stateFailed)
	rep.retired = t
	c.refreshEvent(ev.Replica)

	if ev.Reject {
		for _, r := range outstanding {
			rec := c.inflight[r.ID]
			if rec == nil {
				continue
			}
			rec.Rejected = true
			rec.Replica = -1
			rec.RejectReason = obs.RejectFailure.String()
			c.cfg.Obs.Reject(-1, r.ID, r.Class, t, obs.RejectFailure)
			c.cfg.Obs.OutcomeRejected(r.ID)
			c.finish(rec)
		}
		return nil
	}
	return c.redistribute(t, outstanding, rep.role)
}

// redistribute re-routes requests that lost their replica (failure
// requeue, drain backlog migration) onto the routable fleet — the
// same-role pool in a disaggregated cluster — rejecting them when no
// replica survives. The router sees fresh load signals per request, so
// migrated work spreads like any other traffic, and each re-route is
// recorded as a requeue-flagged decision so telemetry distinguishes
// displaced work from first-pass placements. Decode-pool requeues
// re-price the KV handoff against the new target: the cache died with
// the old replica, so it ships again from the original prefill slot.
func (c *Cluster) redistribute(t simtime.Time, reqs []workload.Request, role Role) error {
	var stage uint8
	switch role {
	case RolePrefill:
		stage = 1
	case RoleDecode:
		stage = 2
	}
	for _, r := range reqs {
		rec := c.inflight[r.ID]
		v := c.routable(r.CacheKey(), role)
		if len(v.states) == 0 {
			rec.Rejected = true
			rec.Replica = -1
			rec.RejectReason = obs.RejectNoReplica.String()
			c.cfg.Obs.Reject(-1, r.ID, r.Class, t, obs.RejectNoReplica)
			c.cfg.Obs.OutcomeRejected(r.ID)
			c.finish(rec)
			continue
		}
		idx := v.route(r)
		if idx < 0 || idx >= len(v.states) {
			return fmt.Errorf("cluster: router %s returned replica %d of %d",
				v.router.Name(), idx, len(v.states))
		}
		target := v.states[idx].Index
		if role == RoleDecode {
			bytes, dur := c.priceHandoff(target, rec.InputLen)
			r.Arrival = t.Add(dur)
			c.handoffCount++
			c.handoffBytes += bytes
			c.handoffLink += dur
			if c.cfg.Obs != nil {
				c.cfg.Obs.Handoff(int(c.prefillSrc[r.ID]), target, r.ID, r.Class, t, dur, bytes)
			}
		}
		if c.cfg.Obs != nil {
			c.recordRoute(t, r, v, idx, stage, true)
		}
		rec.Replica = target
		if err := c.pushTo(target, r); err != nil {
			return err
		}
		c.requeued++
	}
	return nil
}

// mark appends a fleet-composition timeline point at t, coalescing
// same-instant transitions and dropping no-op points.
func (c *Cluster) mark(t simtime.Time) {
	p := metrics.FleetPoint{Time: t}
	for _, rep := range c.replicas {
		switch rep.state {
		case stateProvisioning:
			p.Provisioning++
		case stateActive:
			p.Active++
			switch rep.role {
			case RolePrefill:
				p.ActivePrefill++
			case RoleDecode:
				p.ActiveDecode++
			}
		case stateDraining:
			p.Draining++
		}
	}
	if n := len(c.timeline); n > 0 {
		last := c.timeline[n-1]
		if last.Active == p.Active && last.Provisioning == p.Provisioning && last.Draining == p.Draining &&
			last.ActivePrefill == p.ActivePrefill && last.ActiveDecode == p.ActiveDecode {
			return
		}
		if last.Time == t {
			c.timeline[n-1] = p
			return
		}
	}
	c.timeline = append(c.timeline, p)
}

// advanceTo steps replicas in event order until none has an event before
// t. Only replicas with pending events are touched — idle replicas cost
// nothing per arrival.
func (c *Cluster) advanceTo(ctx context.Context, t simtime.Time) error {
	for {
		i, ev := c.events.min()
		if ev == simtime.Forever || !ev.Before(t) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := c.replicas[i].sim.Step(); err != nil {
			return err
		}
		c.refreshEvent(i)
	}
}

// refreshEvent re-reads replica i's next event time into the event
// tree and marks its routing state dirty; every Step and Push ends
// here. Failed and retired replicas sit at Forever; a draining replica
// whose work has run dry retires here.
func (c *Cluster) refreshEvent(i int) {
	rep := c.replicas[i]
	if rep.state == stateRetired || rep.state == stateFailed {
		c.events.update(i, simtime.Forever)
		return
	}
	c.markDirty(i)
	ev, ok := rep.sim.NextEventTime()
	if !ok {
		if rep.state == stateDraining {
			c.setState(i, stateRetired)
			rep.retired = rep.sim.Clock()
			c.mark(rep.retired)
		}
		ev = simtime.Forever
	}
	c.events.update(i, ev)
}

// clampReplicas bounds a scaling decision to [lo, hi].
func clampReplicas(n, lo, hi int) int {
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

// eventTree is a winner (tournament) tree over replica next-event
// times. Leaf i holds slot i's time; every internal node holds a copy
// of the leaf that wins its subtree on (time, slot index), so the root
// is the earliest event, tie-broken by replica index for determinism.
// A left subtree's slots all precede its right sibling's, so a match
// goes to the right only on a strictly earlier time. Drained replicas
// and the unused leaves past the last slot sit at simtime.Forever;
// those leaves lose every tie to real slots. Nodes carry their time, so
// replaying a match reads two adjacent nodes and nothing else.
type eventTree struct {
	node   []treeNode // node[1] is the root, node[leaves+i] is slot i's leaf
	leaves int        // a power of two
	n      int        // slots in use
}

type treeNode struct {
	t simtime.Time
	i int32
}

func (h *eventTree) init(n int) {
	*h = eventTree{}
	h.grow(n)
	h.n = n
}

// grow rebuilds the tree with at least n leaves, keeping the times set.
func (h *eventTree) grow(n int) {
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	node := make([]treeNode, 2*leaves)
	for i := range leaves {
		node[leaves+i] = treeNode{t: simtime.Forever, i: int32(i)}
		if i < h.leaves {
			node[leaves+i].t = h.node[h.leaves+i].t
		}
	}
	h.node, h.leaves = node, leaves
	for p := leaves - 1; p >= 1; p-- {
		h.play(p)
	}
}

// play replays the match at internal node p from its children.
func (h *eventTree) play(p int) {
	l, r := h.node[2*p], h.node[2*p+1]
	if r.t < l.t {
		l = r
	}
	h.node[p] = l
}

// push appends a new replica slot with the given event time.
func (h *eventTree) push(t simtime.Time) {
	i := h.n
	h.n++
	if h.n > h.leaves {
		h.grow(h.n)
	}
	h.update(i, t)
}

// min returns the replica with the earliest next event.
func (h *eventTree) min() (idx int, t simtime.Time) {
	root := h.node[1]
	return int(root.i), root.t
}

// update sets replica i's event time and replays the matches on its
// path to the root. An unchanged time replays nothing. The root winner,
// usually the replica just stepped, changes every match on its path, so
// its replay runs to the root unchecked; any other replica's stops at
// the first match whose result is unchanged, since no match above it
// can change either.
func (h *eventTree) update(i int, t simtime.Time) {
	p := h.leaves + i
	if h.node[p].t == t {
		return
	}
	h.node[p].t = t
	if h.node[1].i == int32(i) {
		for p >>= 1; p >= 1; p >>= 1 {
			h.play(p)
		}
		return
	}
	for p >>= 1; p >= 1; p >>= 1 {
		old := h.node[p]
		h.play(p)
		if h.node[p] == old {
			return
		}
	}
}
