package main

import (
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	sim "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Fault-injection targets: the wrapper that busy-waits when --inject
// names it. "backend" delays only astra-priced iterations, the paper's
// engine/graph/system pipeline; roofline-priced workloads bypass it.
const (
	injectRouter  = "router"
	injectBackend = "backend"
	injectStream  = "stream"
	injectControl = "control"
)

// parseInject reads an --inject value "layer:duration", e.g.
// "router:2us". The empty string means no injection.
func parseInject(v string) (layer string, d time.Duration, err error) {
	if v == "" {
		return "", 0, nil
	}
	layer, dur, ok := strings.Cut(v, ":")
	if !ok {
		return "", 0, fmt.Errorf("--inject %q: want layer:duration", v)
	}
	switch layer {
	case injectRouter, injectBackend, injectStream, injectControl:
	default:
		return "", 0, fmt.Errorf("--inject %q: unknown layer %q (want router|backend|stream|control)", v, layer)
	}
	d, err = time.ParseDuration(dur)
	if err != nil || d < 0 {
		return "", 0, fmt.Errorf("--inject %q: bad duration", v)
	}
	return layer, d, nil
}

// spin busy-waits for d: a fixed per-call cost that, unlike a sleep,
// keeps the one simulation goroutine on the CPU.
func spin(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

// stat accumulates one wrapped call site: calls and host time inside.
type stat struct {
	calls int64
	ns    int64
}

func (s *stat) add(t time.Time) {
	s.calls++
	s.ns += int64(time.Since(t))
}

func (s stat) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// maxRecords caps the per-request records a traced run keeps for the
// metrics replay; the per-record cost needs a sample, not all of them.
const maxRecords = 1 << 16

// probes wraps the interfaces each layer is called through. With timing
// on it measures every call (the traced run); with an injection it adds
// a busy-wait to one wrapper and measures nothing. Probes measure only
// from outside the program: wrappers around public interfaces and the
// reports the program already returns.
type probes struct {
	timing bool
	inject string
	delay  time.Duration

	sims    []*core.Simulator
	records []metrics.RequestRecord
	began   time.Time

	// Totals over every traced run.
	runs          int
	wall          time.Duration
	pulls         stat // Stream.Next calls
	admit         stat
	rejects       int64
	route         stat
	prefixRoutes  int64
	tick          stat
	iters         stat // backend IterationLatency calls
	batchSeqs     int64
	replicaHost   time.Duration // every replica's Step wall time
	schedHost     time.Duration // core's Scheduler bucket
	backendHost   time.Duration // what backends metered for themselves
	engineHost    time.Duration
	graphHost     time.Duration
	astraHost     time.Duration
	reuseHits     int64
	reuseCalls    int64
	observe       stat
	obsEvents     int64
	obsDecisions  int64
	obsExport     time.Duration
	heapPeak      uint64
	heapSample    []rtmetrics.Sample
	last          *summary
	telemetryRuns int
}

func newProbes(timing bool, inject string, delay time.Duration) *probes {
	return &probes{
		timing: timing, inject: inject, delay: delay,
		heapSample: []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// begin and end bracket one run's wall time.
func (p *probes) begin() { p.began = time.Now() }

func (p *probes) end() {
	if p.timing {
		p.wall += time.Since(p.began)
		p.runs++
	}
}

// sampleHeap records the live heap; called every 1024th wrapped stream
// pull or backend call, it tracks the run's peak at a negligible cost.
func (p *probes) sampleHeap() {
	rtmetrics.Read(p.heapSample)
	if v := p.heapSample[0].Value.Uint64(); v > p.heapPeak {
		p.heapPeak = v
	}
}

func (p *probes) stream(s workload.Stream) workload.Stream {
	if !p.timing && p.inject != injectStream {
		return s
	}
	return &probeStream{s: s, p: p, spin: p.inject == injectStream}
}

type probeStream struct {
	s    workload.Stream
	p    *probes
	spin bool
}

func (w *probeStream) Next() (workload.Request, bool) {
	if w.spin {
		spin(w.p.delay)
	}
	if !w.p.timing {
		return w.s.Next()
	}
	t := time.Now()
	r, ok := w.s.Next()
	w.p.pulls.add(t)
	if w.p.pulls.calls&1023 == 0 {
		w.p.sampleHeap()
	}
	return r, ok
}

func (w *probeStream) Err() error { return workload.StreamErr(w.s) }

func (w *probeStream) Target() int {
	n, _ := workload.StreamTarget(w.s)
	return n
}

func (p *probes) router(r cluster.Router) cluster.Router {
	if !p.timing && p.inject != injectRouter {
		return r
	}
	return &probeRouter{r: r, p: p, spin: p.inject == injectRouter}
}

type probeRouter struct {
	r    cluster.Router
	p    *probes
	spin bool
}

func (w *probeRouter) Name() string { return w.r.Name() }

func (w *probeRouter) Route(req workload.Request, states []cluster.ReplicaState) int {
	if w.spin {
		spin(w.p.delay)
	}
	if !w.p.timing {
		return w.r.Route(req, states)
	}
	t := time.Now()
	idx := w.r.Route(req, states)
	w.p.route.add(t)
	if idx >= 0 && idx < len(states) && states[idx].PrefixTokens > 0 {
		w.p.prefixRoutes++
	}
	return idx
}

func (p *probes) admission(a cluster.Admission) cluster.Admission {
	if !p.timing {
		return a
	}
	return &probeAdmission{a: a, p: p}
}

type probeAdmission struct {
	a cluster.Admission
	p *probes
}

func (w *probeAdmission) Name() string { return w.a.Name() }

func (w *probeAdmission) Admit(req workload.Request, states []cluster.ReplicaState) bool {
	t := time.Now()
	ok := w.a.Admit(req, states)
	w.p.admit.add(t)
	if !ok {
		w.p.rejects++
	}
	return ok
}

func (p *probes) autoscaler(a cluster.Autoscaler) cluster.Autoscaler {
	if !p.timing && p.inject != injectControl {
		return a
	}
	return &probeAutoscaler{a: a, p: p, spin: p.inject == injectControl}
}

type probeAutoscaler struct {
	a    cluster.Autoscaler
	p    *probes
	spin bool
}

func (w *probeAutoscaler) Name() string { return w.a.Name() }

func (w *probeAutoscaler) Desired(v cluster.FleetView) int {
	if w.spin {
		spin(w.p.delay)
	}
	if !w.p.timing {
		return w.a.Desired(v)
	}
	t := time.Now()
	n := w.a.Desired(v)
	w.p.tick.add(t)
	return n
}

// stackProvider is the engine-stack accessor core probes for on
// engine-backed backends; the wrapper forwards it so the reuse-cache
// statistics stay visible.
type stackProvider interface {
	NPUStack() *engine.Stack
	PIMStack() *engine.Stack
}

func (p *probes) backend(f perfmodel.Factory) perfmodel.Factory {
	if !p.timing && p.inject != injectBackend {
		return f
	}
	return func() (perfmodel.Backend, error) {
		inner, err := f()
		if err != nil {
			return nil, err
		}
		b := &probeBackend{Backend: inner, p: p, spin: p.inject == injectBackend && inner.Name() == "astra"}
		if sp, ok := inner.(stackProvider); ok {
			return &probeStackBackend{probeBackend: b, sp: sp}, nil
		}
		return b, nil
	}
}

type probeBackend struct {
	perfmodel.Backend
	p    *probes
	spin bool
}

func (b *probeBackend) IterationLatency(batch *sched.Batch) (simtime.Duration, perfmodel.Breakdown, error) {
	if b.spin {
		spin(b.p.delay)
	}
	if !b.p.timing {
		return b.Backend.IterationLatency(batch)
	}
	t := time.Now()
	d, bd, err := b.Backend.IterationLatency(batch)
	b.p.iters.add(t)
	b.p.batchSeqs += int64(len(batch.Seqs))
	if b.p.iters.calls&1023 == 0 {
		b.p.sampleHeap()
	}
	return d, bd, err
}

type probeStackBackend struct {
	*probeBackend
	sp stackProvider
}

func (b *probeStackBackend) NPUStack() *engine.Stack { return b.sp.NPUStack() }
func (b *probeStackBackend) PIMStack() *engine.Stack { return b.sp.PIMStack() }

// onRecord captures per-request records for the metrics replay.
func (p *probes) onRecord() func(*metrics.RequestRecord) {
	if !p.timing {
		return nil
	}
	return func(r *metrics.RequestRecord) {
		if len(p.records) < maxRecords {
			p.records = append(p.records, *r)
		}
	}
}

// collectReplicas folds every replica's host-time buckets and reuse
// statistics into the totals after a run.
func (p *probes) collectReplicas(s *summary) {
	if p.timing {
		for _, r := range p.sims {
			h := r.HostTimes()
			p.replicaHost += h.Total()
			p.schedHost += h.Scheduler
			p.backendHost += h.Total() - h.Scheduler
			p.engineHost += h.ExecutionEngine
			p.graphHost += h.GraphConverter
			p.astraHost += h.AstraSim
			if npu := r.NPUStack(); npu != nil {
				st := npu.Stats()
				p.reuseHits += st.CompileHits + st.SimulateHits
				p.reuseCalls += st.CompileCalls + st.SimulateCalls
			}
		}
		p.last = s
	}
	p.sims = p.sims[:0]
}

// replayRecords times the captured records through a fresh
// RequestAccumulator: the metrics fold, measured apart from the run.
func (p *probes) replayRecords(classes []sim.TrafficClass) {
	if len(p.records) == 0 {
		return
	}
	acc := metrics.NewRequestAccumulator(slos(classes))
	t := time.Now()
	for i := range p.records {
		acc.Observe(&p.records[i])
	}
	p.observe.ns += int64(time.Since(t))
	p.observe.calls += int64(len(p.records))
	p.records = p.records[:0]
}

// observeTelemetry reads the recorder's counts and times its Chrome
// trace export.
func (p *probes) observeTelemetry(rec *obs.Recorder) error {
	if !p.timing {
		return nil
	}
	p.obsEvents += int64(rec.EventCount())
	p.obsDecisions += int64(rec.DecisionCount())
	t := time.Now()
	err := rec.WriteChromeTrace(io.Discard)
	p.obsExport += time.Since(t)
	p.telemetryRuns++
	return err
}
