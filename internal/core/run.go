package core

import (
	"context"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// IterationStats describes one completed scheduler iteration, delivered
// to the OnIteration hook.
type IterationStats struct {
	Index        int // 0-based iteration index
	BatchSize    int
	PromptTokens int
	Start        simtime.Time     // simulated batch start
	Latency      simtime.Duration // simulated iteration latency
}

// hostEpoch is the fixed origin Step measures host time from.
var hostEpoch = time.Now()

// Run drives the simulator until every request completes, executing the
// Fig. 4 cycle each iteration: scheduler -> performance-model backend ->
// scheduler feedback.
func (s *Simulator) Run() (*Report, error) {
	return s.RunContext(context.Background())
}

// RunContext runs the simulation to completion, checking ctx between
// iterations so long runs can be cancelled by external drivers.
func (s *Simulator) RunContext(ctx context.Context) (*Report, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		done, err := s.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return s.Report(), nil
		}
	}
}

// Step executes one Fig. 4 iteration cycle: the scheduler forms a batch,
// the performance-model backend prices it, and the latency feeds back
// into the scheduler clock. It returns done=true (and performs no work)
// once the trace has drained. Step is the unit external drivers advance
// the simulation by; Report may be called between steps for a snapshot.
//
// Host time is metered on a sample of steps (metrics.StepSampler): all
// of the first 64, then one in 64, scaled up. At millions of steps per
// cluster run, two clock reads per step cost more than the analytical
// backends' pricing, so an untimed step only bumps a counter: no clock
// read, no backend.Host call, no deferred closure. A timed step reads
// the monotonic clock twice (offsets from hostEpoch: time.Since skips
// the wall-clock read time.Now makes) and records its whole wall time;
// the backend's share is subtracted from it at report time (HostTimes).
func (s *Simulator) Step() (done bool, err error) {
	if !s.wall.Sample() {
		return s.step()
	}
	start := time.Since(hostEpoch)
	done, err = s.step()
	s.wall.Record(time.Since(hostEpoch) - start)
	return done, err
}

// step is the body of Step, unmetered.
func (s *Simulator) step() (done bool, err error) {
	batch, ok := s.scheduler.Next()
	if !ok {
		// The final Next can still have rejected trailing requests.
		s.emitRejects()
		s.trimTerminal()
		return true, nil
	}

	latency, err := s.SimulateIteration(batch)
	if err != nil {
		return false, err
	}

	if err := s.scheduler.Complete(batch, latency); err != nil {
		return false, err
	}

	if s.OnRequestComplete != nil {
		fin := s.scheduler.Finished()
		for ; s.emittedFinished < len(fin); s.emittedFinished++ {
			s.OnRequestComplete(fin[s.emittedFinished])
		}
	}
	s.emitRejects()
	s.trimTerminal()

	s.collector.AddIteration(metrics.Iteration{
		Start:        batch.Time,
		End:          batch.Time.Add(latency),
		PromptTokens: batch.PromptTokens,
		GenTokens:    len(batch.Seqs),
		BatchSize:    len(batch.Seqs),
	})
	if s.obsFull {
		s.opts.Obs.Iteration(s.opts.ObsReplica, batch.Time, latency, len(batch.Seqs), batch.PromptTokens)
		for _, op := range batch.PageOps {
			kind := obs.EvKVEvict
			if op.Load {
				kind = obs.EvKVReload
			}
			s.opts.Obs.KVOp(s.opts.ObsReplica, op.ReqID, batch.Time, op.Bytes, kind)
		}
	}
	if s.OnIteration != nil {
		s.OnIteration(IterationStats{
			Index:        s.scheduler.Iterations() - 1,
			BatchSize:    len(batch.Seqs),
			PromptTokens: batch.PromptTokens,
			Start:        batch.Time,
			Latency:      latency,
		})
	}
	return false, nil
}

// StreamMetrics switches this instance to streaming (totals-only)
// metrics: the iteration collector keeps exact totals but drops
// per-iteration records (Report.Buckets becomes nil), and finished or
// rejected request records are discarded each step once the
// OnRequestComplete / OnRequestReject hooks have delivered them, so
// Report.Finished, Report.Rejected, and Report.Latency are empty.
// SimEnd, PromptTPS, GenTPS, Iterations, and KV stats — everything the
// cluster layer folds into its streaming accumulators — are unchanged
// bit for bit. Call it before the first Step.
func (s *Simulator) StreamMetrics() {
	s.streaming = true
	s.collector.Stream()
}

// trimTerminal drops the delivered finished/rejected records in
// streaming mode; the hooks are the only consumers there.
func (s *Simulator) trimTerminal() {
	if !s.streaming {
		return
	}
	s.scheduler.ResetFinished()
	s.emittedFinished = 0
	s.scheduler.ResetRejected()
	s.emittedRejected = 0
}

// emitRejects delivers any newly recorded scheduler rejections to the
// OnRequestReject hook.
func (s *Simulator) emitRejects() {
	if s.OnRequestReject == nil {
		return
	}
	rej := s.scheduler.Rejected()
	for ; s.emittedRejected < len(rej); s.emittedRejected++ {
		s.OnRequestReject(rej[s.emittedRejected])
	}
}

// Report assembles a report over the iterations completed so far. After
// Run it is the full-trace report; between Steps it is a snapshot.
func (s *Simulator) Report() *Report { return s.report() }

// SimulateIteration prices one batch through the performance-model
// backend and returns the iteration latency. Single-iteration
// experiments (the Figs. 8-10 simulation-time measurements) drive it via
// Step and read HostTimes.
func (s *Simulator) SimulateIteration(b *sched.Batch) (simtime.Duration, error) {
	latency, _, err := s.backend.IterationLatency(b)
	return latency, err
}

// report assembles the final Report.
func (s *Simulator) report() *Report {
	prompt, gen := s.collector.MeanThroughput()
	fin := s.scheduler.Finished()

	samples := make([]metrics.LatencySample, len(fin))
	for i, f := range fin {
		samples[i] = metrics.LatencySample{
			Arrival: f.Req.Arrival, FirstToken: f.FirstToken,
			Completed: f.Completed, OutputTokens: f.Req.OutputLen,
		}
	}

	r := &Report{
		Model:      s.opts.Model,
		Topo:       s.opts.Topo,
		Backend:    s.backend.Name(),
		Iterations: s.scheduler.Iterations(),
		SimEnd:     s.collector.End(),
		PromptTPS:  prompt,
		GenTPS:     gen,
		Buckets:    s.collector.Buckets(s.opts.ThroughputWindow),
		Finished:   fin,
		Rejected:   s.scheduler.Rejected(),
		Latency:    metrics.Latency(samples),
		KV:         s.kv.Stats(),
		Host:       s.HostTimes(),
		WallClock:  s.wall.Time(),
	}
	if npu := s.NPUStack(); npu != nil {
		r.NPUStats = npu.Stats()
	}
	if pim := s.PIMStack(); pim != nil {
		r.PIMStats = pim.Stats()
	}
	if bc, ok := s.backend.(blockCounter); ok {
		r.BlocksSimulated, r.BlocksShifted = bc.BlockCounts()
	}
	return r
}

// HostTimes returns the per-component host wall-clock breakdown (the
// Fig. 9 stack): the backend's own phases, and as the scheduler bucket
// the rest of the steps' wall time, max(0, wall - backend total). Both
// meters sample on their own counters (metrics.StepSampler), so beyond
// 64 steps these are estimates.
func (s *Simulator) HostTimes() metrics.ComponentTimes {
	host := s.backend.Host()
	host.Scheduler = max(0, s.wall.Time()-host.Total())
	return host
}

// Push adds requests to the simulator mid-run, preserving their IDs —
// the incremental path cluster routing feeds replicas by. The caller is
// responsible for ID uniqueness within this simulator.
func (s *Simulator) Push(reqs ...workload.Request) error {
	for _, r := range reqs {
		if err := s.scheduler.Push(r); err != nil {
			return err
		}
	}
	return nil
}

// NextEventTime returns when this simulator next has work to do (see
// sched.Scheduler.NextEventTime); ok is false once it has drained.
func (s *Simulator) NextEventTime() (simtime.Time, bool) {
	return s.scheduler.NextEventTime()
}

// Clock returns the simulator's scheduler clock.
func (s *Simulator) Clock() simtime.Time { return s.scheduler.Clock() }

// Topology returns the network topology this instance was built on —
// the link model the cluster layer prices KV-handoff transfers with.
func (s *Simulator) Topology() network.Topology { return s.opts.Topo }

// KVBytesPerToken returns the per-token KV-cache footprint of the
// served model (summed over layers, pre-sharding).
func (s *Simulator) KVBytesPerToken() int64 { return s.opts.Model.KVBytesPerToken() }

// QueuedTokens returns the total tokens still to be processed — the
// load signal least-loaded cluster routing balances on.
func (s *Simulator) QueuedTokens() int64 { return s.scheduler.QueuedTokens() }

// QueuedRequests returns how many requests are waiting or in flight.
func (s *Simulator) QueuedRequests() int { return s.scheduler.QueuedRequests() }

// PrefixCachedTokens returns how many leading prefix tokens of the given
// class this instance has cached (device or host tier) — the signal
// prefix-affinity cluster routing scores replicas by.
func (s *Simulator) PrefixCachedTokens(class string) int { return s.kv.PrefixCachedTokens(class) }

// DevicePrefixCachedTokens returns the device-resident subset of the
// class's cached prefix — the coverage a hit serves without recompute
// or a host-link reload (the routing-regret cost model's signal).
func (s *Simulator) DevicePrefixCachedTokens(class string) int {
	return s.kv.DevicePrefixCachedTokens(class)
}

// Outstanding returns the requests accepted but not yet finished or
// rejected — the work a cluster must requeue or reject when this
// replica fails mid-run.
func (s *Simulator) Outstanding() []workload.Request { return s.scheduler.Outstanding() }

// TakePending removes and returns the not-yet-admitted backlog — the
// work a cluster migrates to surviving replicas when this replica
// drains.
func (s *Simulator) TakePending() []workload.Request { return s.scheduler.TakePending() }
