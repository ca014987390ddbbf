package cluster

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// ReplicaSummary is one fleet slot's contribution to a cluster run.
type ReplicaSummary struct {
	Index      int
	Backend    string // performance model pricing this replica
	Role       string // serving pool (unified, prefill, decode)
	State      string // lifecycle at end of run (active, retired, failed, ...)
	Requests   int    // requests routed to this replica
	Iterations int
	SimEnd     simtime.Time
	PromptTPS  float64 // over this replica's own active span
	GenTPS     float64
	Evictions  int64
	Reloads    int64

	// Shared-prefix cache counters (zero unless prefix caching is on).
	PrefixLookups     int64
	PrefixHits        int64
	PrefixTokensSaved int64 // prefill tokens skipped via cache hits
	PrefixSpillBytes  int64 // prefix blocks spilled device -> host
	PrefixReloadBytes int64 // prefix blocks restored host -> device
	// PrefixLinkSeconds prices the spill+reload traffic over this
	// replica's host link (the reload link-time cost of the CPU tier).
	PrefixLinkSeconds float64

	// ReplicaSeconds is the capacity this slot consumed: provisioning
	// start to retirement (or the run's end, if never retired).
	// CostWeight is its hardware-relative cost factor.
	ReplicaSeconds float64
	CostWeight     float64
}

// PrefixHitRate returns the fraction of prefix-cache probes that reused
// at least one cached block.
func (p ReplicaSummary) PrefixHitRate() float64 {
	if p.PrefixLookups == 0 {
		return 0
	}
	return float64(p.PrefixHits) / float64(p.PrefixLookups)
}

// PoolStats is one serving pool's rollup in a disaggregated cluster.
type PoolStats struct {
	Role     string // "prefill" or "decode"
	Slots    int    // fleet slots ever created in this pool
	Requests int    // placements onto the pool, requeues included

	// Capacity consumed by the pool and its cost-weighted share.
	ReplicaSeconds float64
	CostProxy      float64

	// GoodputTPS is the token rate the pool delivered within the latency
	// phase it owns: prompt tokens of completed requests that met their
	// class TTFT target (prefill), output tokens of those that met TPOT
	// (decode), over the run's SimEnd.
	GoodputTPS float64
}

// Report is the outcome of one cluster simulation.
type Report struct {
	Replicas  int // fleet slots ever created
	Router    string
	Admission string
	Scaler    string // autoscaling policy; "" for a static fleet

	// DecodeRouter names the stage-2 placement policy of a
	// disaggregated cluster ("" on a unified fleet).
	DecodeRouter string

	Requests int // arrivals
	Admitted int
	Rejected int
	// Requeued counts requests re-routed off a replica that failed
	// (its outstanding work) or drained (its not-yet-admitted backlog).
	Requeued int

	SimEnd simtime.Time // latest replica completion

	// Classes holds per-class latency/SLO aggregates, ordered by name.
	Classes []metrics.ClassSummary
	// Records is the full per-request pipeline, in cluster ID
	// (arrival) order; nil with Config.StreamMetrics.
	Records []metrics.RequestRecord
	// PerReplica summarises placement and replica-level counters.
	PerReplica []ReplicaSummary

	// FleetTimeline is the fleet's lifecycle composition over time, one
	// point per transition (a single point for a static fleet).
	FleetTimeline []metrics.FleetPoint
	// ReplicaSeconds integrates committed replicas over the run; the
	// CostProxy weighs each slot's share by its hardware cost factor.
	ReplicaSeconds float64
	CostProxy      float64

	// Shared-prefix cache rollup across the fleet (see ReplicaSummary).
	PrefixLookups     int64
	PrefixHits        int64
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

	// Cluster-level rates over SimEnd: all completed output tokens per
	// second, the SLO-attained subset, and the prompt-token rate.
	ThroughputTPS float64
	GoodputTPS    float64
	PromptTPS     float64

	// Latency aggregates end-to-end timing over all completed requests,
	// classes combined.
	Latency metrics.LatencyStats

	// Regret summarises counterfactual routing regret (nil unless the
	// cluster ran with a telemetry recorder): token regret converts to
	// seconds at each chosen replica's realized serving rate.
	Regret *obs.RegretSummary

	// Sessions summarises multi-turn conversation traffic (nil unless
	// the trace carried session identity): first- vs later-turn TTFT
	// and session-level goodput.
	Sessions *metrics.SessionSummary
}

// report assembles the final Report from the accumulator and replicas.
func (c *Cluster) report() *Report {
	r := &Report{
		Replicas:      len(c.replicas),
		Router:        c.views[c.entryRole()].router.Name(),
		Admission:     c.admission.Name(),
		Requeued:      c.requeued,
		Records:       c.records,
		FleetTimeline: c.timeline,
	}
	if c.scaler != nil {
		r.Scaler = c.scaler.Name()
	}
	if c.prefillScaler != nil {
		r.Scaler = c.prefillScaler.Name()
	}
	if c.disagg {
		r.DecodeRouter = c.views[RoleDecode].router.Name()
		r.HandoffCount = c.handoffCount
		r.HandoffBytes = c.handoffBytes
		r.HandoffLinkSeconds = c.handoffLink.Seconds()
	}

	perReplica := make([]ReplicaSummary, len(c.replicas))
	for i, rep := range c.replicas {
		srep := rep.sim.Report()
		perReplica[i] = ReplicaSummary{
			Index:      i,
			Backend:    srep.Backend,
			Role:       rep.role.String(),
			State:      rep.state.String(),
			Iterations: srep.Iterations,
			SimEnd:     srep.SimEnd,
			PromptTPS:  srep.PromptTPS,
			GenTPS:     srep.GenTPS,
			Evictions:  srep.KV.Evictions,
			Reloads:    srep.KV.Reloads,
			CostWeight: rep.cost,

			PrefixLookups:     srep.KV.PrefixLookups,
			PrefixHits:        srep.KV.PrefixHits,
			PrefixTokensSaved: srep.KV.PrefixTokensSaved,
			PrefixSpillBytes:  srep.KV.PrefixSpillBytes,
			PrefixReloadBytes: srep.KV.PrefixReloadBytes,
			PrefixLinkSeconds: hostLinkSeconds(srep.Topo,
				srep.KV.PrefixSpills+srep.KV.PrefixReloads,
				srep.KV.PrefixSpillBytes+srep.KV.PrefixReloadBytes),
		}
		r.PrefixLookups += perReplica[i].PrefixLookups
		r.PrefixHits += perReplica[i].PrefixHits
		r.PrefixTokensSaved += perReplica[i].PrefixTokensSaved
		r.PrefixSpillBytes += perReplica[i].PrefixSpillBytes
		r.PrefixReloadBytes += perReplica[i].PrefixReloadBytes
		r.PrefixLinkSeconds += perReplica[i].PrefixLinkSeconds
		if srep.SimEnd.After(r.SimEnd) {
			r.SimEnd = srep.SimEnd
		}
	}
	// Capacity cost: each slot accrues from provisioning start until
	// retirement; slots still standing at the end accrue to SimEnd.
	for i, rep := range c.replicas {
		end := r.SimEnd
		if rep.state == stateRetired || rep.state == stateFailed {
			end = rep.retired
		}
		if end.Before(rep.created) {
			end = rep.created
		}
		secs := end.Sub(rep.created).Seconds()
		perReplica[i].ReplicaSeconds = secs
		r.ReplicaSeconds += secs
		r.CostProxy += secs * rep.cost
	}

	// Every run's counts, token totals, and placements come from the
	// online accumulator; only the distributions depend on the mode.
	r.Requests = c.accum.Requests()
	r.Rejected = c.accum.Rejected()
	r.Admitted = r.Requests - r.Rejected
	for i, n := range c.routedTo {
		perReplica[i].Requests = n
	}
	if c.disagg {
		// A disaggregated request completes on its decode slot, so per-slot
		// request counts come from placement counters instead.
		pools := []PoolStats{{Role: RolePrefill.String()}, {Role: RoleDecode.String()}}
		for i, rep := range c.replicas {
			p := &pools[0]
			if rep.role == RoleDecode {
				p = &pools[1]
			}
			p.Slots++
			p.Requests += c.placed[i]
			perReplica[i].Requests = c.placed[i]
			p.ReplicaSeconds += perReplica[i].ReplicaSeconds
			p.CostProxy += perReplica[i].ReplicaSeconds * rep.cost
		}
		if end := r.SimEnd.Seconds(); end > 0 {
			pools[0].GoodputTPS = float64(c.accum.AttainedPrefillTokens()) / end
			pools[1].GoodputTPS = float64(c.accum.AttainedDecodeTokens()) / end
		}
		r.Pools = pools
	}
	r.PerReplica = perReplica
	if end := r.SimEnd.Seconds(); end > 0 {
		r.PromptTPS = float64(c.accum.PromptTokens()) / end
	}
	r.Classes = c.accum.Classes(r.SimEnd)
	r.Sessions = c.accum.Sessions(r.SimEnd)
	r.Latency = c.accum.Latency()
	if !c.cfg.StreamMetrics {
		// Retained mode swaps the sketched percentiles for exact ones
		// over the ID-ordered record table.
		r.Latency = metrics.ExactDistributions(c.records, r.Classes)
	}
	for _, cs := range r.Classes {
		r.ThroughputTPS += cs.ThroughputTPS
		r.GoodputTPS += cs.GoodputTPS
	}

	// Counterfactual regret: convert each decision's token regret into
	// seconds at the chosen replica's realized serving rate (prompt +
	// generation tokens per second), falling back to the fleet mean for
	// replicas that never served (their own rate is unmeasured).
	if c.cfg.Obs != nil {
		var rateSum float64
		var rateN int
		for i := range perReplica {
			if v := perReplica[i].PromptTPS + perReplica[i].GenTPS; v > 0 {
				rateSum += v
				rateN++
			}
		}
		mean := 0.0
		if rateN > 0 {
			mean = rateSum / float64(rateN)
		}
		r.Regret = c.cfg.Obs.FinalizeRegret(func(rep int) float64 {
			if rep >= 0 && rep < len(perReplica) {
				return perReplica[rep].PromptTPS + perReplica[rep].GenTPS
			}
			return 0
		}, mean)
	}
	return r
}

// hostLinkSeconds prices moving `bytes` over the host link in `ops`
// block-sized transfers, sharded across the topology's NPUs the same
// way the performance backends price page operations: per-op cost is
// HostTransfer(share), so the sum is HostTransfer(total share) plus the
// per-op link latency for the remaining ops.
func hostLinkSeconds(topo network.Topology, ops, bytes int64) float64 {
	if ops <= 0 {
		return 0
	}
	npus := int64(topo.NPUNodes())
	if npus <= 0 {
		npus = 1
	}
	d := topo.HostTransfer(bytes/npus) + simtime.Duration(ops-1)*topo.HostTransfer(0)
	return d.Seconds()
}

// PrefixHitRate returns the fleet-wide fraction of prefix-cache probes
// that reused at least one cached block.
func (r *Report) PrefixHitRate() float64 {
	if r.PrefixLookups == 0 {
		return 0
	}
	return float64(r.PrefixHits) / float64(r.PrefixLookups)
}

// TotalIterations sums scheduler iterations across replicas.
func (r *Report) TotalIterations() int {
	n := 0
	for _, p := range r.PerReplica {
		n += p.Iterations
	}
	return n
}

// PeakReplicas returns the largest committed fleet size over the run.
func (r *Report) PeakReplicas() int {
	peak := 0
	for _, p := range r.FleetTimeline {
		if c := p.Committed(); c > peak {
			peak = c
		}
	}
	return peak
}

// Class returns the named class's summary, or nil if absent.
func (r *Report) Class(name string) *metrics.ClassSummary {
	for i := range r.Classes {
		if r.Classes[i].Class == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// WriteClassTSV writes the per-class summary table.
func (r *Report) WriteClassTSV(w io.Writer) error {
	return metrics.WriteClassSummaryTSV(w, r.Classes)
}

// WriteRequestsTSV writes the full per-request record table.
func (r *Report) WriteRequestsTSV(w io.Writer) error {
	return metrics.WriteRequestsTSV(w, r.Records)
}

// WriteFleetTSV writes the fleet-size timeline with per-interval
// replica-seconds.
func (r *Report) WriteFleetTSV(w io.Writer) error {
	return metrics.WriteFleetTimelineTSV(w, r.FleetTimeline, r.SimEnd)
}

// WriteReplicaTSV writes the per-replica placement/utilisation table.
func (r *Report) WriteReplicaTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "replica\tbackend\trole\tstate\trequests\titerations\tsim_end_s\t"+
		"prompt_tps\tgen_tps\tkv_evictions\tkv_reloads\treplica_s\tcost_weight\t"+
		"prefix_hit_rate\tprefix_saved_toks\tspill_bytes\treload_bytes\tprefix_link_s"); err != nil {
		return err
	}
	for _, p := range r.PerReplica {
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%s\t%s\t%d\t%d\t%.3f\t%.1f\t%.1f\t%d\t%d\t%.3f\t%.2f\t%.3f\t%d\t%d\t%d\t%.6f\n",
			p.Index, p.Backend, p.Role, p.State, p.Requests, p.Iterations, p.SimEnd.Seconds(),
			p.PromptTPS, p.GenTPS, p.Evictions, p.Reloads, p.ReplicaSeconds, p.CostWeight,
			p.PrefixHitRate(), p.PrefixTokensSaved, p.PrefixSpillBytes, p.PrefixReloadBytes,
			p.PrefixLinkSeconds); err != nil {
			return err
		}
	}
	return bw.Flush()
}
