package llmservingsim

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TrafficClass describes one class of a mixed workload for cluster
// simulation: a named length distribution, an arrival rate, and
// optional per-request SLO targets that drive goodput accounting.
type TrafficClass struct {
	Name string

	// Dist selects the length distribution: "sharegpt", "alpaca", or
	// "fixed-IN-OUT" (e.g. "fixed-512-128").
	Dist string

	// RatePerSec is the class's mean Poisson arrival rate.
	RatePerSec float64

	// SLO targets; zero means "no target" (always attained).
	TTFT time.Duration // time to first token
	TPOT time.Duration // time per output token after the first

	// PrefixTokens is the class's shared system-prompt length: every
	// request carries these tokens ahead of its sampled input, identical
	// across the class — the traffic shape prefix caching and
	// prefix-affinity routing exploit. Zero means no shared prefix.
	PrefixTokens int
}

func (tc TrafficClass) internal() (workload.Class, error) {
	dist, err := workload.ParseDist(tc.Dist)
	if err != nil {
		return workload.Class{}, err
	}
	c := workload.Class{
		Name:      tc.Name,
		Dist:      dist,
		Rate:      tc.RatePerSec,
		TTFT:      simtime.FromStd(tc.TTFT),
		TPOT:      simtime.FromStd(tc.TPOT),
		PrefixLen: tc.PrefixTokens,
	}
	return c, c.Validate()
}

// Ramp scales arrival rates over simulated time: the rate multiplier
// moves linearly from From at trace start to To at the end of the Over
// window and holds there. The zero value is the identity ramp. Ramps
// turn one trace into a saturation scan from under- to over-load.
type Ramp struct {
	From, To float64
	Over     time.Duration // 0 = the trace's expected span
}

func (r Ramp) internal() workload.Ramp {
	return workload.Ramp{From: r.From, To: r.To, Over: simtime.FromStd(r.Over)}
}

// MultiClassTrace synthesises n requests mixing the given traffic
// classes: a merged Poisson arrival process at the sum of the class
// rates (scaled by the ramp), each request tagged with its class name.
// Deterministic for a given (classes, n, ramp, seed).
func MultiClassTrace(classes []TrafficClass, n int, ramp Ramp, seed int64) ([]Request, error) {
	wc, err := internalClasses(classes)
	if err != nil {
		return nil, err
	}
	reqs, err := workload.MultiClassTrace(wc, n, ramp.internal(), seed)
	if err != nil {
		return nil, err
	}
	return fromWorkload(reqs), nil
}

func internalClasses(classes []TrafficClass) ([]workload.Class, error) {
	out := make([]workload.Class, len(classes))
	seen := make(map[string]bool, len(classes))
	for i, tc := range classes {
		c, err := tc.internal()
		if err != nil {
			return nil, err
		}
		// Duplicate names would silently collapse into one SLO map
		// entry; reject them here like MultiClassTrace does.
		if seen[c.Name] {
			return nil, fmt.Errorf("llmservingsim: duplicate traffic class %q", c.Name)
		}
		seen[c.Name] = true
		out[i] = c
	}
	return out, nil
}

// ParseTrafficClasses converts a comma-separated list of class specs of
// the form "name:dist:rate[:ttft_ms[:tpot_ms[:prefix_toks]]]" — the
// grammar shared by the llmservingsim and tracegen CLIs. Example:
// "chat:sharegpt:3:1000:80,agent:alpaca:9:500:50:512".
func ParseTrafficClasses(spec string) ([]TrafficClass, error) {
	wcs, err := workload.ParseClasses(spec)
	if err != nil {
		return nil, err
	}
	out := make([]TrafficClass, len(wcs))
	for i, wc := range wcs {
		out[i] = TrafficClass{
			Name:         wc.Name,
			Dist:         wc.Dist.Name,
			RatePerSec:   wc.Rate,
			TTFT:         wc.TTFT.Std(),
			TPOT:         wc.TPOT.Std(),
			PrefixTokens: wc.PrefixLen,
		}
	}
	return out, nil
}

// ParseRamp converts a ramp spec "from:to[:over_s]", e.g. "0.5:2:60".
func ParseRamp(spec string) (Ramp, error) {
	wr, err := workload.ParseRamp(spec)
	if err != nil {
		return Ramp{}, err
	}
	return Ramp{From: wr.From, To: wr.To, Over: wr.Over.Std()}, nil
}

// ClusterScenario is a multi-replica serving simulation: one arrival
// stream fanned out over Replicas identical simulator instances through
// an admission gate and a routing policy. Scenarios run standalone via
// Run, or alongside single-instance Scenarios inside a Sweep.
type ClusterScenario struct {
	Name string

	// Config parameterises each replica (model, NPUs, scheduling, ...).
	// Without a Fleet, replicas are homogeneous copies of it; with one,
	// it is the base each ReplicaSpec overlays.
	Config Config

	// Replicas is the serving instance count (>= 1). With a Fleet it
	// may be left 0 (it is derived as the fleet total) or must match
	// that total.
	Replicas int

	// Fleet, when non-empty, makes the cluster heterogeneous: each
	// ReplicaSpec contributes Count replicas serving its model on its
	// hardware under its performance-model backend, in spec order. See
	// ParseFleet for the CLI grammar.
	//
	// Specs may also carry a Role (RolePrefill / RoleDecode), turning the
	// cluster into a disaggregated deployment: prefill replicas compute
	// each request's first token, then hand its KV cache to a decode
	// replica over the interconnect (priced through the network model)
	// where the remaining tokens generate. Roles must not mix with
	// unified specs, and both pools need at least one replica. See
	// WithDisaggregation for the common two-pool case.
	Fleet []ReplicaSpec

	Router    RouterPolicy
	Admission AdmissionPolicy

	// DecodeRouter places the decode stage of disaggregated requests
	// once their prefill completes (Router places the prefill stage).
	// The zero value is round-robin. Ignored by unified fleets.
	DecodeRouter RouterPolicy

	// AdmissionLimit bounds the admission policy: queued requests per
	// replica for AdmitQueueCap, total in-flight cluster tokens for
	// AdmitTokenBudget. Ignored by AdmitAll.
	AdmissionLimit int64

	// Classes supplies per-class SLO targets (matched to Request.Class
	// by name). Classes are optional: requests of unknown or empty
	// class get no SLO and always attain.
	Classes []TrafficClass

	// Trace is the arrival stream, typically from MultiClassTrace or
	// LoadTrace. Requests are processed in arrival order.
	Trace []Request

	// TraceStream is the pull-based alternative to Trace (exactly one of
	// the two must be set): requests are generated as the simulation
	// reaches them and never materialize as a slice. Streams are
	// consumed by a run, so a scenario holding one is single-use — in
	// particular it cannot ride in a Sweep next to repeated runs.
	TraceStream RequestStream

	// StreamMetrics drops the per-request record table. Every run folds
	// each request's metrics into the same constant-size accumulators
	// at its terminal event, so counts, rates, and means do not depend
	// on it; it decides only two things. First, whether the report keeps
	// one record per request (false) or none, holding report memory flat
	// in the request count (true). Second, whether percentile fields
	// (P50/P95/P99) are exact nearest-rank values over those records
	// (false) or come from a relative-error sketch with a 2.5% guarantee
	// (true). With it set the report's Records-dependent output
	// (WriteRequestsTSV) is empty; use RequestsOut to stream rows
	// instead.
	StreamMetrics bool

	// RequestsOut, when non-nil, receives the per-request TSV table
	// (the WriteRequestsTSV format) row by row as requests reach their
	// terminal events — completion order, not ID order. This is how
	// streaming-metrics runs keep a per-request artifact without
	// retaining records.
	RequestsOut io.Writer

	// Shards fans the replica-stepping half of the simulation loop out
	// over this many worker goroutines (slot i belongs to shard i mod
	// Shards), with routing and admission kept on the coordinating
	// goroutine in arrival order. Results are byte-identical to the
	// sequential run. 0 or 1 means sequential; sharding requires a
	// static unified fleet (no disaggregation, autoscaling, fleet
	// events, telemetry, or RequestsOut).
	Shards int

	// Autoscaler makes the fleet dynamic: the policy re-evaluates the
	// fleet size every ScaleTick of simulated time, clamped to
	// [MinReplicas, MaxReplicas]. ScaleNone (the zero value) keeps the
	// fleet static. Autoscaled slots beyond the initial fleet cycle
	// through the initial replica configurations (round-robin over the
	// expanded Fleet, or copies of Config when homogeneous).
	Autoscaler AutoscalePolicy

	// ScaleTick is the autoscaler evaluation interval (> 0 when an
	// Autoscaler is selected).
	ScaleTick time.Duration

	// MinReplicas / MaxReplicas clamp scaling decisions (ticks and
	// scale events). Zero values default to 1 and max(initial replicas,
	// MinReplicas).
	MinReplicas int
	MaxReplicas int

	// Per-pool clamps for a disaggregated fleet's autoscaler (the
	// Autoscaler policy is instantiated once per pool: the prefill
	// instance reacts to TTFT attainment, the decode instance to TPOT
	// attainment). Zero values default to 1 and max(initial pool size,
	// min). Ignored by unified fleets, which use MinReplicas/MaxReplicas.
	PrefillMinReplicas int
	PrefillMaxReplicas int
	DecodeMinReplicas  int
	DecodeMaxReplicas  int

	// ScaleQueueTarget is the queue-depth policy's target queued
	// requests per active replica.
	ScaleQueueTarget int

	// ScaleSLOTarget / ScaleSLOHigh bound the slo-target policy's
	// hysteresis band: interval SLO attainment below the target scales
	// up one replica, at or above the high bound scales down one,
	// inside [target, high) the fleet holds. ScaleSLOHigh defaults
	// to 1.
	ScaleSLOTarget float64
	ScaleSLOHigh   float64

	// ScaleSchedule is the scheduled policy's step plan.
	ScaleSchedule []ScalePoint

	// ProvisionDelay is the cold-start time of a scaled-up replica:
	// provisioned at t, it starts serving at t+ProvisionDelay.
	ProvisionDelay time.Duration

	// FleetEvents injects failures, planned scales, and drains at fixed
	// simulated times (see ParseFleetEvents for the CLI grammar).
	FleetEvents []FleetEvent

	// Telemetry, when non-nil, records request spans, per-replica
	// execution detail, and every routing/admission/autoscaling
	// decision with counterfactual regret (see NewTelemetry and
	// ClusterReport.Regret). Falls back to Config.Telemetry when nil.
	// One recorder serves the whole cluster; give each concurrently
	// running scenario its own.
	Telemetry *Telemetry
}

// WithTelemetry returns a copy of the scenario recording into the
// given telemetry recorder.
func (sc ClusterScenario) WithTelemetry(t *Telemetry) ClusterScenario {
	sc.Telemetry = t
	return sc
}

// telemetry returns the scenario's recorder: the scenario-level field,
// else the replica Config's.
func (sc ClusterScenario) telemetry() *Telemetry {
	if sc.Telemetry != nil {
		return sc.Telemetry
	}
	return sc.Config.Telemetry
}

// WithAutoscaler returns a copy of the scenario resized at runtime by
// the given policy: evaluated every tick, clamped to [minReplicas,
// maxReplicas]. Policy parameters (ScaleQueueTarget, ScaleSLOTarget,
// ScaleSchedule) are set on the returned scenario directly.
func (sc ClusterScenario) WithAutoscaler(policy AutoscalePolicy, tick time.Duration, minReplicas, maxReplicas int) ClusterScenario {
	sc.Autoscaler = policy
	sc.ScaleTick = tick
	sc.MinReplicas = minReplicas
	sc.MaxReplicas = maxReplicas
	return sc
}

// WithReplicaSpecs returns a copy of the scenario serving the given
// heterogeneous fleet (see ReplicaSpec and ParseFleet); the replica
// count is derived from the specs.
func (sc ClusterScenario) WithReplicaSpecs(specs ...ReplicaSpec) ClusterScenario {
	sc.Fleet = specs
	sc.Replicas = FleetReplicas(specs)
	return sc
}

// WithDisaggregation returns a copy of the scenario serving a
// disaggregated fleet: prefill replicas computing first tokens and
// decode replicas generating the rest from handed-off KV caches, all
// built from the scenario's base Config. Heterogeneous disaggregated
// fleets (different hardware per pool) are expressed directly through
// Fleet specs carrying Roles.
func (sc ClusterScenario) WithDisaggregation(prefill, decode int) ClusterScenario {
	return sc.WithReplicaSpecs(
		ReplicaSpec{Count: prefill, Role: RolePrefill},
		ReplicaSpec{Count: decode, Role: RoleDecode},
	)
}

// disaggregated reports whether any fleet spec carries a non-unified
// role.
func (sc ClusterScenario) disaggregated() bool {
	for _, rs := range sc.Fleet {
		if rs.Role != RoleUnified {
			return true
		}
	}
	return false
}

// Validate checks the scenario without building it.
func (sc ClusterScenario) Validate() error {
	if len(sc.Fleet) > 0 {
		for _, rs := range sc.Fleet {
			if err := rs.Validate(); err != nil {
				return err
			}
		}
		total := FleetReplicas(sc.Fleet)
		if total > MaxFleetReplicas {
			return &ConfigError{Field: "Fleet", Value: total,
				Reason: fmt.Sprintf("fleet total exceeds the %d replica maximum", MaxFleetReplicas)}
		}
		if sc.Replicas != 0 && sc.Replicas != total {
			return &ConfigError{Field: "Replicas", Value: sc.Replicas,
				Reason: fmt.Sprintf("does not match the fleet's %d replicas (leave 0 to derive)", total)}
		}
	} else if sc.Replicas < 1 {
		return &ConfigError{Field: "Replicas", Value: sc.Replicas, Reason: "must be >= 1"}
	}
	if !sc.Router.valid() {
		return &ConfigError{Field: "Router", Value: sc.Router, Reason: "unknown router policy"}
	}
	if !sc.DecodeRouter.valid() {
		return &ConfigError{Field: "DecodeRouter", Value: sc.DecodeRouter, Reason: "unknown router policy"}
	}
	if !sc.Admission.valid() {
		return &ConfigError{Field: "Admission", Value: sc.Admission, Reason: "unknown admission policy"}
	}
	if err := sc.validateDisaggregation(); err != nil {
		return err
	}
	if len(sc.Trace) == 0 && sc.TraceStream == nil {
		return &ConfigError{Field: "Trace", Value: len(sc.Trace), Reason: "cluster scenario needs a trace or a trace stream"}
	}
	if len(sc.Trace) > 0 && sc.TraceStream != nil {
		return &ConfigError{Field: "TraceStream", Value: sc.TraceStream,
			Reason: "set either Trace or TraceStream, not both"}
	}
	if err := sc.validateSharding(); err != nil {
		return err
	}
	if _, err := internalClasses(sc.Classes); err != nil {
		return &ConfigError{Field: "Classes", Value: len(sc.Classes), Reason: "invalid traffic class", Err: err}
	}
	if !sc.Autoscaler.valid() {
		return &ConfigError{Field: "Autoscaler", Value: sc.Autoscaler, Reason: "unknown autoscale policy"}
	}
	if sc.MinReplicas < 0 || sc.MaxReplicas < 0 {
		return &ConfigError{Field: "MinReplicas", Value: sc.MinReplicas, Reason: "replica bounds must not be negative"}
	}
	if sc.MaxReplicas > MaxFleetReplicas {
		return &ConfigError{Field: "MaxReplicas", Value: sc.MaxReplicas,
			Reason: fmt.Sprintf("exceeds the %d replica maximum", MaxFleetReplicas)}
	}
	if sc.ProvisionDelay < 0 {
		return &ConfigError{Field: "ProvisionDelay", Value: sc.ProvisionDelay, Reason: "must not be negative"}
	}
	initial := sc.Replicas
	if len(sc.Fleet) > 0 {
		initial = FleetReplicas(sc.Fleet)
	}
	effMin := max(sc.MinReplicas, 1)
	effMax := sc.MaxReplicas
	if effMax == 0 {
		effMax = max(initial, effMin)
	}
	if effMax < effMin {
		return &ConfigError{Field: "MaxReplicas", Value: sc.MaxReplicas,
			Reason: fmt.Sprintf("below MinReplicas %d", sc.MinReplicas)}
	}
	if initial > effMax {
		return &ConfigError{Field: "Replicas", Value: initial,
			Reason: fmt.Sprintf("initial fleet exceeds MaxReplicas %d", sc.MaxReplicas)}
	}
	if sc.Autoscaler != ScaleNone {
		if sc.ScaleTick <= 0 {
			return &ConfigError{Field: "ScaleTick", Value: sc.ScaleTick,
				Reason: "autoscaling needs a positive evaluation tick"}
		}
		if _, err := sc.buildAutoscaler(); err != nil {
			return &ConfigError{Field: "Autoscaler", Value: sc.Autoscaler.String(), Reason: "invalid policy parameters", Err: err}
		}
	}
	if _, err := fleetEventsInternal(sc.FleetEvents); err != nil {
		return &ConfigError{Field: "FleetEvents", Value: len(sc.FleetEvents), Reason: "invalid fleet event", Err: err}
	}
	// Replica configs are validated once per homogeneous group, not
	// once per replica.
	if len(sc.Fleet) == 0 {
		return sc.Config.Validate()
	}
	for _, rs := range sc.Fleet {
		if err := rs.apply(sc.Config).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// validateSharding checks that a sharded scenario stays inside the
// configuration space whose sequential bit-identity the sharded loop
// guarantees (see internal/cluster/shard.go).
func (sc ClusterScenario) validateSharding() error {
	if sc.Shards < 0 {
		return &ConfigError{Field: "Shards", Value: sc.Shards, Reason: "must not be negative"}
	}
	if sc.Shards <= 1 {
		return nil
	}
	reason := ""
	switch {
	case sc.disaggregated():
		reason = "sharding requires a unified fleet (no prefill/decode pools)"
	case sc.Autoscaler != ScaleNone:
		reason = "sharding requires a static fleet (no autoscaler)"
	case len(sc.FleetEvents) > 0:
		reason = "sharding requires a static fleet (no fleet events)"
	case sc.telemetry() != nil:
		reason = "sharding is incompatible with telemetry recording"
	case sc.RequestsOut != nil:
		reason = "sharding is incompatible with a per-request row sink (completion order is nondeterministic across shards)"
	}
	if reason != "" {
		return &ConfigError{Field: "Shards", Value: sc.Shards, Reason: reason}
	}
	return nil
}

// validateDisaggregation checks the role structure of the fleet and
// the per-pool scaling bounds.
func (sc ClusterScenario) validateDisaggregation() error {
	if !sc.disaggregated() {
		if sc.PrefillMinReplicas != 0 || sc.PrefillMaxReplicas != 0 ||
			sc.DecodeMinReplicas != 0 || sc.DecodeMaxReplicas != 0 {
			return &ConfigError{Field: "PrefillMinReplicas", Value: sc.PrefillMinReplicas,
				Reason: "per-pool replica bounds need a disaggregated fleet (specs with #prefill/#decode roles)"}
		}
		return nil
	}
	prefillN, decodeN := 0, 0
	for _, rs := range sc.Fleet {
		switch rs.Role {
		case RolePrefill:
			prefillN += rs.Count
		case RoleDecode:
			decodeN += rs.Count
		default:
			return &ConfigError{Field: "Fleet", Value: rs.String(),
				Reason: "a disaggregated fleet cannot mix unified replicas with prefill/decode pools"}
		}
	}
	if prefillN == 0 || decodeN == 0 {
		return &ConfigError{Field: "Fleet", Value: FleetString(sc.Fleet),
			Reason: "a disaggregated fleet needs at least one prefill and one decode replica"}
	}
	if sc.Config.SkipInitiation {
		return &ConfigError{Field: "Config.SkipInitiation", Value: true,
			Reason: "incompatible with disaggregation (decode replicas are built generation-only internally)"}
	}
	for _, ev := range sc.FleetEvents {
		if ev.Kind == FleetScale {
			return &ConfigError{Field: "FleetEvents", Value: ev.String(),
				Reason: "scale events are ambiguous on a disaggregated fleet (use the per-pool autoscaler)"}
		}
	}
	check := func(field string, lo, hi, initial int) error {
		if lo < 0 || hi < 0 {
			return &ConfigError{Field: field, Value: lo, Reason: "pool replica bounds must not be negative"}
		}
		effMin := max(lo, 1)
		effMax := hi
		if effMax == 0 {
			effMax = max(initial, effMin)
		}
		if effMax < effMin {
			return &ConfigError{Field: field, Value: hi, Reason: fmt.Sprintf("pool max below min %d", lo)}
		}
		if initial > effMax {
			return &ConfigError{Field: field, Value: initial,
				Reason: fmt.Sprintf("initial pool size exceeds pool max %d", hi)}
		}
		return nil
	}
	if err := check("PrefillMaxReplicas", sc.PrefillMinReplicas, sc.PrefillMaxReplicas, prefillN); err != nil {
		return err
	}
	return check("DecodeMaxReplicas", sc.DecodeMinReplicas, sc.DecodeMaxReplicas, decodeN)
}

// buildAutoscaler constructs the internal autoscaling policy, nil for
// ScaleNone.
func (sc ClusterScenario) buildAutoscaler() (cluster.Autoscaler, error) {
	if sc.Autoscaler == ScaleNone {
		return nil, nil
	}
	schedule := make([]cluster.SchedulePoint, len(sc.ScaleSchedule))
	for i, p := range sc.ScaleSchedule {
		schedule[i] = cluster.SchedulePoint{
			Time:     simtime.Time(simtime.FromStd(p.At)),
			Replicas: p.Replicas,
		}
	}
	return cluster.NewAutoscaler(sc.Autoscaler.internal(), cluster.AutoscalerConfig{
		QueueTarget:  sc.ScaleQueueTarget,
		AttainTarget: sc.ScaleSLOTarget,
		AttainHigh:   sc.ScaleSLOHigh,
		Schedule:     schedule,
	})
}

// replicaCost returns the capacity-cost weight of a replica built from
// cfg: its hardware preset's weight, or 1.0 without a preset.
func replicaCost(cfg Config) float64 {
	if cfg.Hardware == "" {
		return 1
	}
	hw, err := perfmodel.LookupHardware(cfg.Hardware)
	if err != nil {
		return 1 // Validate already rejected unknown presets
	}
	return hw.Cost()
}

// build assembles the internal cluster. onRecord, when non-nil, is the
// streaming per-request row sink (RunContext wires RequestsOut through
// it).
func (sc ClusterScenario) build(onRecord func(*metrics.RequestRecord)) (*cluster.Cluster, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// One buildOptions call per homogeneous replica group; the lists
	// then map replica index -> options. Backend factories inside the
	// options build per-replica state, so sharing an Options value
	// across a group is safe.
	disagg := sc.disaggregated()
	var optsList []core.Options
	var costList []float64
	var roles []cluster.Role
	if len(sc.Fleet) == 0 {
		opts, err := buildOptions(sc.Config)
		if err != nil {
			return nil, err
		}
		optsList = make([]core.Options, sc.Replicas)
		costList = make([]float64, sc.Replicas)
		roles = make([]cluster.Role, sc.Replicas)
		for i := range optsList {
			optsList[i] = opts
			costList[i] = replicaCost(sc.Config)
		}
	} else {
		optsList = make([]core.Options, 0, FleetReplicas(sc.Fleet))
		costList = make([]float64, 0, FleetReplicas(sc.Fleet))
		roles = make([]cluster.Role, 0, FleetReplicas(sc.Fleet))
		for _, rs := range sc.Fleet {
			cfg := rs.apply(sc.Config)
			if rs.Role == RoleDecode {
				// Decode replicas never run a prompt phase: their KV
				// caches arrive from the prefill pool, so requests enter
				// generation directly and prefix caching has nothing to
				// serve.
				cfg.SkipInitiation = true
				cfg.PrefixCache = PrefixCacheOff
			}
			opts, err := buildOptions(cfg)
			if err != nil {
				return nil, err
			}
			for i := 0; i < rs.Count; i++ {
				optsList = append(optsList, opts)
				costList = append(costList, replicaCost(cfg))
				roles = append(roles, rs.Role.internal())
			}
		}
	}
	// Autoscaled slots beyond the initial fleet cycle through their
	// pool's initial configurations, so a heterogeneous fleet (or pool)
	// scales up in its own proportions. Creation order indexes the
	// cycle: for a unified fleet the per-role counter equals the slot
	// index, preserving the classic round-robin.
	poolOpts := map[cluster.Role][]core.Options{}
	poolCosts := map[cluster.Role][]float64{}
	for i := range optsList {
		poolOpts[roles[i]] = append(poolOpts[roles[i]], optsList[i])
		poolCosts[roles[i]] = append(poolCosts[roles[i]], costList[i])
	}
	router, err := cluster.NewRouter(sc.Router.internal())
	if err != nil {
		return nil, err
	}
	var decodeRouter cluster.Router
	if disagg {
		if decodeRouter, err = cluster.NewRouter(sc.DecodeRouter.internal()); err != nil {
			return nil, err
		}
	}
	admission, err := cluster.NewAdmission(sc.Admission.internal(), sc.AdmissionLimit)
	if err != nil {
		return nil, err
	}
	classes, err := internalClasses(sc.Classes)
	if err != nil {
		return nil, err
	}
	// A disaggregated fleet scales per pool: the same policy is
	// instantiated twice so each pool's hysteresis state is its own.
	var scaler, prefillScaler, decodeScaler cluster.Autoscaler
	if disagg {
		if prefillScaler, err = sc.buildAutoscaler(); err != nil {
			return nil, err
		}
		if decodeScaler, err = sc.buildAutoscaler(); err != nil {
			return nil, err
		}
	} else if scaler, err = sc.buildAutoscaler(); err != nil {
		return nil, err
	}
	events, err := fleetEventsInternal(sc.FleetEvents)
	if err != nil {
		return nil, err
	}
	hook := sc.Config.OnIteration
	rec := sc.telemetry().recorder()
	poolSeen := map[cluster.Role]int{}
	slotCost := map[int]float64{}
	return cluster.New(cluster.Config{
		Replicas: len(optsList),
		Roles:    roles,
		NewReplica: func(i int, role cluster.Role) (*core.Simulator, error) {
			list := poolOpts[role]
			if len(list) == 0 {
				return nil, fmt.Errorf("llmservingsim: no replica configuration for role %s", role)
			}
			k := poolSeen[role] % len(list)
			poolSeen[role]++
			slotCost[i] = poolCosts[role][k]
			opts := list[k]
			// All replicas share the cluster's recorder; each tags its
			// events with its own fleet slot.
			opts.Obs = rec
			opts.ObsReplica = i
			inner, err := core.New(opts, nil)
			if err != nil {
				return nil, err
			}
			// Iteration indices are per replica; events from all
			// replicas interleave on the goroutine driving the cluster.
			attachIterationHook(inner, hook)
			return inner, nil
		},
		// The cluster builds slot i before pricing it, so the cost map
		// is always populated by the time this runs.
		ReplicaCost:    func(i int, role cluster.Role) float64 { return slotCost[i] },
		Router:         router,
		DecodeRouter:   decodeRouter,
		Admission:      admission,
		Classes:        classes,
		Autoscaler:     scaler,
		PrefillScaler:  prefillScaler,
		DecodeScaler:   decodeScaler,
		ScaleTick:      simtime.FromStd(sc.ScaleTick),
		MinReplicas:    sc.MinReplicas,
		MaxReplicas:    sc.MaxReplicas,
		PrefillMin:     sc.PrefillMinReplicas,
		PrefillMax:     sc.PrefillMaxReplicas,
		DecodeMin:      sc.DecodeMinReplicas,
		DecodeMax:      sc.DecodeMaxReplicas,
		ProvisionDelay: simtime.FromStd(sc.ProvisionDelay),
		Events:         events,
		Obs:            rec,
		StreamMetrics:  sc.StreamMetrics,
		OnRecord:       onRecord,
		Shards:         sc.Shards,
	})
}

// Run simulates the cluster scenario to completion.
func (sc ClusterScenario) Run() (*ClusterReport, error) {
	return sc.RunContext(context.Background())
}

// RunContext simulates the cluster scenario, checking ctx at arrival
// and iteration boundaries.
func (sc ClusterScenario) RunContext(ctx context.Context) (*ClusterReport, error) {
	var rows *metrics.RequestsTSVWriter
	var onRecord func(*metrics.RequestRecord)
	if sc.RequestsOut != nil {
		rows = metrics.NewRequestsTSVWriter(sc.RequestsOut)
		onRecord = rows.WriteRow
	}
	c, err := sc.build(onRecord)
	if err != nil {
		return nil, err
	}
	var rep *cluster.Report
	if sc.TraceStream != nil {
		rep, err = c.RunStream(ctx, streamAdapter{s: sc.TraceStream})
	} else {
		rep, err = c.RunContext(ctx, toWorkload(sc.Trace))
	}
	if err != nil {
		return nil, err
	}
	if rows != nil {
		if err := rows.Flush(); err != nil {
			return nil, fmt.Errorf("llmservingsim: writing request rows: %w", err)
		}
	}
	out := wrapClusterReport(rep)
	out.Model = sc.fleetModel()
	if len(sc.Fleet) > 0 {
		out.Topology = fmt.Sprintf("fleet[%s] (%d-npu %s)", FleetString(sc.Fleet), sc.Config.NPUs, sc.Config.Parallelism)
	} else {
		out.Topology = fmt.Sprintf("%dx(%d-npu %s)", sc.Replicas, sc.Config.NPUs, sc.Config.Parallelism)
	}
	return out, nil
}

// fleetModel labels the models the scenario serves: the base model, or
// the distinct fleet models joined with '+' when specs override it.
func (sc ClusterScenario) fleetModel() string {
	if len(sc.Fleet) == 0 {
		return sc.Config.Model
	}
	var names []string
	seen := map[string]bool{}
	for _, rs := range sc.Fleet {
		name := rs.Model
		if name == "" {
			name = sc.Config.Model
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return strings.Join(names, "+")
}

// DistStats summarises one latency component's distribution in seconds
// (nearest-rank percentiles).
type DistStats struct {
	MeanSec, P50Sec, P95Sec, P99Sec float64
}

// ClassStats is one traffic class's outcome in a cluster run.
type ClassStats struct {
	Class string

	Requests    int // arrivals (admitted + rejected)
	Rejected    int // refused, any reason
	Completed   int // finished serving
	SLOAttained int // completed within both SLO targets

	// Rejection breakdown by reason (sums to Rejected): dropped by the
	// admission policy, no routable replica existed, unservable by the
	// scheduler, or lost to an injected replica failure.
	RejectedAdmission  int
	RejectedNoReplica  int
	RejectedUnservable int
	RejectedFailure    int

	TTFT    DistStats // time to first token, over completed requests
	TPOT    DistStats // time per output token, over multi-token requests
	Latency DistStats // end-to-end

	// GoodputTPS is the SLO-attained generation throughput in output
	// tokens/second; ThroughputTPS counts all completed output tokens.
	GoodputTPS    float64
	ThroughputTPS float64
}

// PoolStats is one serving pool's rollup in a disaggregated cluster
// run: capacity consumed and the token rate delivered within the
// latency phase the pool owns (TTFT-attained prompt tokens for
// prefill, TPOT-attained output tokens for decode).
type PoolStats struct {
	Role     string // "prefill" or "decode"
	Slots    int    // fleet slots ever created in this pool
	Requests int    // placements onto the pool, requeues included

	ReplicaSeconds float64
	CostProxy      float64
	GoodputTPS     float64
}

// ReplicaStats summarises one replica's share of a cluster run.
type ReplicaStats struct {
	Index      int
	Backend    string // performance model pricing this replica
	Role       string // serving pool (unified, prefill, decode)
	State      string // lifecycle at end of run (active, retired, failed, ...)
	Requests   int
	Iterations int
	SimEndSec  float64
	PromptTPS  float64
	GenTPS     float64
	Evictions  int64
	Reloads    int64

	// Shared-prefix cache counters (zero unless prefix caching is on).
	// PrefixLinkSeconds prices the replica's spill/reload traffic over
	// its host link.
	PrefixHitRate     float64
	PrefixTokensSaved int64
	PrefixSpillBytes  int64
	PrefixReloadBytes int64
	PrefixLinkSeconds float64

	// ReplicaSeconds is the capacity this slot consumed (provisioning
	// start to retirement or run end); CostWeight its hardware-relative
	// cost factor.
	ReplicaSeconds float64
	CostWeight     float64
}

// ClusterReport is the outcome of a cluster scenario.
type ClusterReport struct {
	Model     string // per-replica model name
	Topology  string // e.g. "4x(16-npu hybrid)"
	Replicas  int    // fleet slots ever created
	Router    string
	Admission string
	Scaler    string // autoscaling policy; "" for a static fleet

	// DecodeRouter names the stage-2 placement policy of a
	// disaggregated cluster ("" on a unified fleet).
	DecodeRouter string

	Requests int
	Admitted int
	Rejected int
	Requeued int // re-routed off failed (outstanding) or draining (backlog) replicas

	SimEndSec float64

	// Latency aggregates all classes; Classes breaks the run down per
	// traffic class, ordered by name.
	Latency    LatencyStats
	Classes    []ClassStats
	PerReplica []ReplicaStats

	// FleetTimeline is the fleet's lifecycle composition over time (a
	// single point for a static fleet). ReplicaSeconds integrates
	// committed replicas over the run; CostProxy weighs each slot by
	// its hardware cost factor — the capacity-cost axis autoscaling
	// studies compare on.
	FleetTimeline  []FleetPoint
	ReplicaSeconds float64
	CostProxy      float64

	PromptTPS     float64
	ThroughputTPS float64 // completed output tokens/second
	GoodputTPS    float64 // SLO-attained output tokens/second

	// Fleet-wide shared-prefix cache rollup (zero unless prefix caching
	// is on): probe hit rate, prefill tokens served from cache, bytes
	// moved over the host links, and the simulated link time that cost.
	PrefixHitRate     float64
	PrefixTokensSaved int64
	PrefixSpillBytes  int64
	PrefixReloadBytes int64
	PrefixLinkSeconds float64

	// Disaggregation rollup (empty/zero on a unified fleet): per-pool
	// stats plus the KV-handoff transfer totals — every prefill->decode
	// cache movement priced through the network model.
	Pools              []PoolStats
	HandoffCount       int
	HandoffBytes       int64
	HandoffLinkSeconds float64

	// Regret summarises counterfactual routing regret — nil unless the
	// scenario ran with a Telemetry recorder.
	Regret *RegretSummary

	// Sessions summarises multi-turn conversation traffic — nil unless
	// the trace carried session identity (see NewPopulationStream).
	Sessions *SessionStats

	inner *cluster.Report
}

// SessionStats aggregates multi-turn session traffic: conversation
// counts, the first- vs later-turn TTFT split (later turns ride the
// session's cached prefix), and session-level goodput.
type SessionStats struct {
	Sessions  int // distinct sessions observed
	Completed int // sessions whose every turn was served
	Attained  int // completed sessions with every turn within SLO

	Turns         int // session turns observed (admitted + rejected)
	TurnsRejected int

	FirstTurnTTFT DistStats // over completed first turns
	LaterTurnTTFT DistStats // over completed turns >= 2

	OutputTokens int64 // generated by completed session turns
	// GoodputTPS is the session-level goodput: output tokens of
	// fully-SLO-attained sessions per second of simulated time.
	GoodputTPS float64
}

// PeakReplicas returns the largest committed fleet size over the run.
func (r *ClusterReport) PeakReplicas() int {
	peak := 0
	for _, p := range r.FleetTimeline {
		if c := p.Committed(); c > peak {
			peak = c
		}
	}
	return peak
}

func wrapClusterReport(rep *cluster.Report) *ClusterReport {
	out := &ClusterReport{
		Replicas:       rep.Replicas,
		Router:         rep.Router,
		Admission:      rep.Admission,
		Scaler:         rep.Scaler,
		DecodeRouter:   rep.DecodeRouter,
		Requests:       rep.Requests,
		Admitted:       rep.Admitted,
		Rejected:       rep.Rejected,
		Requeued:       rep.Requeued,
		ReplicaSeconds: rep.ReplicaSeconds,
		CostProxy:      rep.CostProxy,
		SimEndSec:      rep.SimEnd.Seconds(),
		Latency: LatencyStats{
			Count:   rep.Latency.Count,
			MeanSec: rep.Latency.MeanSec,
			P50Sec:  rep.Latency.P50Sec,
			P95Sec:  rep.Latency.P95Sec,
			P99Sec:  rep.Latency.P99Sec,
			TTFTSec: rep.Latency.MeanTTFTSec,
			TPOTSec: rep.Latency.MeanTPOTSec,
		},
		PromptTPS:     rep.PromptTPS,
		ThroughputTPS: rep.ThroughputTPS,
		GoodputTPS:    rep.GoodputTPS,

		PrefixHitRate:     rep.PrefixHitRate(),
		PrefixTokensSaved: rep.PrefixTokensSaved,
		PrefixSpillBytes:  rep.PrefixSpillBytes,
		PrefixReloadBytes: rep.PrefixReloadBytes,
		PrefixLinkSeconds: rep.PrefixLinkSeconds,

		HandoffCount:       rep.HandoffCount,
		HandoffBytes:       rep.HandoffBytes,
		HandoffLinkSeconds: rep.HandoffLinkSeconds,

		inner: rep,
	}
	for _, p := range rep.Pools {
		out.Pools = append(out.Pools, PoolStats(p))
	}
	if rep.Regret != nil {
		s := RegretSummary(*rep.Regret)
		out.Regret = &s
	}
	if rep.Sessions != nil {
		out.Sessions = &SessionStats{
			Sessions:      rep.Sessions.Sessions,
			Completed:     rep.Sessions.Completed,
			Attained:      rep.Sessions.Attained,
			Turns:         rep.Sessions.Turns,
			TurnsRejected: rep.Sessions.TurnsRejected,
			FirstTurnTTFT: DistStats(rep.Sessions.FirstTurnTTFT),
			LaterTurnTTFT: DistStats(rep.Sessions.LaterTurnTTFT),
			OutputTokens:  rep.Sessions.OutputTokens,
			GoodputTPS:    rep.Sessions.GoodputTPS,
		}
	}
	for _, cs := range rep.Classes {
		out.Classes = append(out.Classes, ClassStats{
			Class:       cs.Class,
			Requests:    cs.Requests,
			Rejected:    cs.Rejected,
			Completed:   cs.Completed,
			SLOAttained: cs.SLOAttained,

			RejectedAdmission:  cs.RejectedAdmission,
			RejectedNoReplica:  cs.RejectedNoReplica,
			RejectedUnservable: cs.RejectedUnservable,
			RejectedFailure:    cs.RejectedFailure,

			TTFT:          DistStats(cs.TTFT),
			TPOT:          DistStats(cs.TPOT),
			Latency:       DistStats(cs.Latency),
			GoodputTPS:    cs.GoodputTPS,
			ThroughputTPS: cs.ThroughputTPS,
		})
	}
	for _, p := range rep.PerReplica {
		out.PerReplica = append(out.PerReplica, ReplicaStats{
			Index:          p.Index,
			Backend:        p.Backend,
			Role:           p.Role,
			State:          p.State,
			Requests:       p.Requests,
			Iterations:     p.Iterations,
			SimEndSec:      p.SimEnd.Seconds(),
			PromptTPS:      p.PromptTPS,
			GenTPS:         p.GenTPS,
			Evictions:      p.Evictions,
			Reloads:        p.Reloads,
			ReplicaSeconds: p.ReplicaSeconds,
			CostWeight:     p.CostWeight,

			PrefixHitRate:     p.PrefixHitRate(),
			PrefixTokensSaved: p.PrefixTokensSaved,
			PrefixSpillBytes:  p.PrefixSpillBytes,
			PrefixReloadBytes: p.PrefixReloadBytes,
			PrefixLinkSeconds: p.PrefixLinkSeconds,
		})
	}
	for _, p := range rep.FleetTimeline {
		out.FleetTimeline = append(out.FleetTimeline, FleetPoint{
			TimeSec:       p.Time.Seconds(),
			Active:        p.Active,
			Provisioning:  p.Provisioning,
			Draining:      p.Draining,
			ActivePrefill: p.ActivePrefill,
			ActiveDecode:  p.ActiveDecode,
		})
	}
	return out
}

// Class returns the named class's stats, or nil if absent.
func (r *ClusterReport) Class(name string) *ClassStats {
	for i := range r.Classes {
		if r.Classes[i].Class == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// TotalIterations sums scheduler iterations across replicas.
func (r *ClusterReport) TotalIterations() int {
	n := 0
	for _, p := range r.PerReplica {
		n += p.Iterations
	}
	return n
}

// KVEvictions sums KV-cache evictions across replicas.
func (r *ClusterReport) KVEvictions() (evictions, reloads int64) {
	for _, p := range r.PerReplica {
		evictions += p.Evictions
		reloads += p.Reloads
	}
	return evictions, reloads
}

// WriteClassTSV writes the per-class summary table (*-classes.tsv).
func (r *ClusterReport) WriteClassTSV(w io.Writer) error { return r.inner.WriteClassTSV(w) }

// WriteRequestsTSV writes the per-request record table (*-requests.tsv).
func (r *ClusterReport) WriteRequestsTSV(w io.Writer) error { return r.inner.WriteRequestsTSV(w) }

// WriteReplicaTSV writes the per-replica placement table
// (*-replicas.tsv).
func (r *ClusterReport) WriteReplicaTSV(w io.Writer) error { return r.inner.WriteReplicaTSV(w) }

// WriteFleetTSV writes the fleet-size timeline with per-interval
// replica-seconds (*-fleet.tsv).
func (r *ClusterReport) WriteFleetTSV(w io.Writer) error { return r.inner.WriteFleetTSV(w) }

// Routers lists the available routing policies.
func Routers() []string { return cluster.Routers() }

// Admissions lists the available admission policies.
func Admissions() []string { return cluster.Admissions() }

// SchedPolicies lists the batch scheduling policies (canonical CLI
// spellings).
func SchedPolicies() []string {
	return []string{SchedOrca.String(), SchedStatic.String(), SchedChunked.String()}
}

// PerfModels lists the performance-model backends (canonical CLI
// spellings).
func PerfModels() []string {
	return []string{PerfModelAstra.String(), PerfModelRoofline.String()}
}

// PrefixCacheModes lists the prefix-cache modes (canonical CLI
// spellings).
func PrefixCacheModes() []string {
	return []string{PrefixCacheOff.String(), PrefixCacheGPU.String(), PrefixCacheTiered.String()}
}
