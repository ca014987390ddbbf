package main

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	sim "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	astrabackend "repro/internal/perfmodel/astra"
	"repro/internal/perfmodel/roofline"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// defaultSeed is the seed every workload's fingerprint is pinned at.
const defaultSeed = 1

// spec is one benchmark workload: how to build its arrival source and
// scenario from a seed. The set-up it returns is single-use (streams are
// consumed by a run), so the driver calls setup once per run.
type spec struct {
	name     string
	replicas int
	arrivals int
	// telemetry marks a workload whose scored run records telemetry; the
	// traced run also times it with telemetry off.
	telemetry bool
	setup     func(seed int64, scratch string) (instance, error)
}

// instance is one set-up workload, ready for exactly one run.
//
// runPublic is the scored path: the public repro API, untouched.
// runInternal assembles the same simulation from internal/cluster.Config
// or core.Options so every layer can be called through a probe wrapper;
// its fingerprint must equal runPublic's.
type instance interface {
	// runPublic runs the scored path; telemetry false turns off the
	// workload's telemetry, if it records any.
	runPublic(telemetry bool) (*summary, error)
	runInternal(p *probes) (*summary, error)
	// close removes the instance's set-up files.
	close()
}

var workloads = []spec{
	{
		name:     "fleet256",
		replicas: 256,
		arrivals: 100000,
		setup:    setupFleet256,
	},
	{
		name:     "paper-npu-pim",
		replicas: 1,
		arrivals: 512,
		setup:    setupPaperNPUPIM,
	},
	{
		name:     "sessions-tiered",
		replicas: 48,
		arrivals: 24000,
		setup:    setupSessionsTiered,
	},
	{
		name:      "disagg-traced",
		replicas:  16,
		arrivals:  100000,
		telemetry: true,
		setup:     setupDisaggTraced,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rooflineReplica is the 2-NPU gpt2 roofline replica the cluster
// workloads are built from, with memMiB of device memory per NPU.
func rooflineReplica(memMiB int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Model = "gpt2"
	cfg.NPUs = 2
	cfg.Parallelism = sim.ParallelismTensor
	cfg.NPU.MemoryBytes = memMiB << 20
	cfg.PerfModel = sim.PerfModelRoofline
	return cfg
}

func setupFleet256(seed int64, _ string) (instance, error) {
	classes := []sim.TrafficClass{
		{Name: "short", Dist: "fixed-64-16", RatePerSec: 2400, TTFT: 50 * time.Millisecond, TPOT: 10 * time.Millisecond},
		{Name: "long", Dist: "fixed-256-48", RatePerSec: 800, TTFT: 100 * time.Millisecond, TPOT: 10 * time.Millisecond},
	}
	const n = 100000
	stream, err := sim.NewMultiClassStream(classes, n, sim.Ramp{}, seed)
	if err != nil {
		return nil, err
	}
	sc := sim.ClusterScenario{
		Name: "fleet256",
		// 200 MiB pinches the KV budget, so saturated replicas
		// exercise admission and eviction.
		Config:         rooflineReplica(200),
		Replicas:       256,
		Router:         sim.RouterLeastLoaded,
		Admission:      sim.AdmitQueueCap,
		AdmissionLimit: 48,
		Classes:        classes,
		TraceStream:    stream,
		StreamMetrics:  true,
	}
	return &clusterInstance{sc: sc, arrivals: n}, sc.Validate()
}

func setupSessionsTiered(seed int64, _ string) (instance, error) {
	classes := []sim.TrafficClass{
		{Name: "chat", Dist: "fixed-96-32", RatePerSec: 1200, PrefixTokens: 64, TTFT: 50 * time.Millisecond, TPOT: 10 * time.Millisecond},
		{Name: "api", Dist: "fixed-48-16", RatePerSec: 400, PrefixTokens: 32, TTFT: 50 * time.Millisecond, TPOT: 10 * time.Millisecond},
	}
	pop := sim.PopulationSpec{
		Clients: 2000, RateDist: "zipf", Skew: 1.1,
		DiurnalAmp: 0.3, DiurnalPeriod: 600,
		BurstFactor: 3, BurstFrac: 0.1, BurstMean: 30,
	}
	sess := sim.SessionSpec{MeanTurns: 4, ThinkMean: 0.5, ThinkSigma: 0.6, MaxContext: 512}
	const n = 24000
	stream, err := sim.NewPopulationStream(classes, pop, sess, n, seed)
	if err != nil {
		return nil, err
	}
	// 1 GiB per NPU keeps most conversations resident across think
	// times; the rest spill to a 256 MiB host tier and reload from it,
	// or drop once it is full.
	cfg := rooflineReplica(1024)
	cfg.Scheduling = sim.SchedChunked
	cfg.PrefixCache = sim.PrefixCacheTiered
	cfg.KVHostMemGB = 0.25
	sc := sim.ClusterScenario{
		Name:          "sessions-tiered",
		Config:        cfg,
		Replicas:      48,
		Router:        sim.RouterPrefixAffinity,
		Classes:       classes,
		TraceStream:   stream,
		StreamMetrics: true,
	}
	return &clusterInstance{sc: sc, arrivals: n}, sc.Validate()
}

func setupDisaggTraced(seed int64, scratch string) (instance, error) {
	classes := []sim.TrafficClass{
		{Name: "chat", Dist: "fixed-128-32", RatePerSec: 1800, TTFT: 40 * time.Millisecond, TPOT: 8 * time.Millisecond},
		{Name: "batch", Dist: "fixed-384-16", RatePerSec: 600, TTFT: 200 * time.Millisecond, TPOT: 20 * time.Millisecond},
	}
	const n = 100000
	trace, err := sim.MultiClassTrace(classes, n, sim.Ramp{From: 0.6, To: 1.6}, seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(scratch, "disagg-traced.trace")
	if err := sim.SaveReplayTrace(path, trace, fmt.Sprintf("simbench disagg-traced seed=%d", seed)); err != nil {
		return nil, err
	}
	events, err := sim.ParseFleetEvents("fail@8:2,fail@20:11")
	if err != nil {
		return nil, err
	}
	sc := sim.ClusterScenario{
		Name:               "disagg-traced",
		Config:             rooflineReplica(200),
		Router:             sim.RouterLeastLoaded,
		DecodeRouter:       sim.RouterLeastLoaded,
		Classes:            classes,
		StreamMetrics:      true,
		Autoscaler:         sim.ScaleSLO,
		ScaleTick:          500 * time.Millisecond,
		ScaleSLOTarget:     0.9,
		ScaleSLOHigh:       0.99,
		PrefillMinReplicas: 4,
		PrefillMaxReplicas: 12,
		DecodeMinReplicas:  4,
		DecodeMaxReplicas:  12,
		ProvisionDelay:     time.Second,
		FleetEvents:        events,
	}.WithDisaggregation(8, 8)
	inst := &clusterInstance{sc: sc, arrivals: n, tracePath: path,
		telemetry: &sim.TelemetryConfig{Detail: sim.TraceSpans}}
	check := sc.WithTelemetry(sim.NewTelemetry(*inst.telemetry))
	check.TraceStream = noStream{}
	if err := check.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

func setupPaperNPUPIM(seed int64, _ string) (instance, error) {
	cfg := sim.DefaultConfig()
	cfg.Model = "gpt3-7b"
	cfg.NPUs = 8
	cfg.Parallelism = sim.ParallelismHybrid
	cfg.NPUGroups = 2
	cfg.PIMType = sim.PIMLocal
	cfg.SubBatches = 2
	cfg.Scheduling = sim.SchedOrca
	cfg.KVManage = sim.KVPaged
	const n = 512
	trace, err := sim.ShareGPTTrace(n, 4, seed)
	if err != nil {
		return nil, err
	}
	return &singleInstance{cfg: cfg, trace: trace}, cfg.Validate()
}

// clusterInstance runs a ClusterScenario. A scenario reading its
// arrivals from a replay file opens the file inside the run, so the
// parse is timed with the simulation.
type clusterInstance struct {
	sc        sim.ClusterScenario
	arrivals  int
	tracePath string
	telemetry *sim.TelemetryConfig
}

// close removes the replay file; the run's scratch directory goes at
// exit in any case.
func (c *clusterInstance) close() {
	if c.tracePath != "" {
		os.Remove(c.tracePath)
	}
}

func (c *clusterInstance) stream() (sim.RequestStream, func() error, error) {
	if c.tracePath == "" {
		return c.sc.TraceStream, func() error { return nil }, nil
	}
	rs, err := sim.OpenReplayTrace(c.tracePath)
	if err != nil {
		return nil, nil, err
	}
	return rs, rs.Close, nil
}

func (c *clusterInstance) runPublic(telemetry bool) (*summary, error) {
	src, done, err := c.stream()
	if err != nil {
		return nil, err
	}
	sc := c.sc
	sc.TraceStream = src
	var tel *sim.Telemetry
	if c.telemetry != nil && telemetry {
		tel = sim.NewTelemetry(*c.telemetry)
		sc.Telemetry = tel
	}
	rep, err := sc.Run()
	if cerr := done(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	s := publicClusterSummary(rep, c.arrivals)
	if tel != nil {
		s.telemetry = c.telemetry.Detail.String()
	}
	return s, nil
}

func (c *clusterInstance) runInternal(p *probes) (*summary, error) {
	src, done, err := c.stream()
	if err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if c.telemetry != nil {
		rec = obs.New(obs.Config{Detail: obsDetail(c.telemetry.Detail)})
	}
	// Replica construction is timed, as it is inside the public Run.
	p.begin()
	rep, err := runCluster(c.sc, rec, p, publicStream{src})
	p.end()
	if cerr := done(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	s := internalClusterSummary(rep, c.arrivals)
	if rec != nil {
		s.telemetry = c.telemetry.Detail.String()
		if err := p.observeTelemetry(rec); err != nil {
			return nil, err
		}
	}
	p.collectReplicas(s)
	p.replayRecords(c.sc.Classes)
	return s, nil
}

func runCluster(sc sim.ClusterScenario, rec *obs.Recorder, p *probes, src workload.Stream) (*cluster.Report, error) {
	cl, err := buildCluster(sc, rec, p)
	if err != nil {
		return nil, err
	}
	return cl.RunStream(context.Background(), p.stream(src))
}

// singleInstance runs one simulator instance over a materialized trace.
type singleInstance struct {
	cfg   sim.Config
	trace []sim.Request
}

func (s *singleInstance) close() {}

func (s *singleInstance) runPublic(bool) (*summary, error) {
	simulator, err := sim.NewFromConfig(s.cfg, s.trace)
	if err != nil {
		return nil, err
	}
	rep, err := simulator.Run()
	if err != nil {
		return nil, err
	}
	return publicSingleSummary(rep, len(s.trace)), nil
}

func (s *singleInstance) runInternal(p *probes) (*summary, error) {
	opts, err := coreOptions(s.cfg)
	if err != nil {
		return nil, err
	}
	opts.Backend = p.backend(opts.Backend)
	reqs := toWorkload(s.trace)
	p.begin()
	rep, err := runSingle(opts, reqs, p)
	p.end()
	if err != nil {
		return nil, err
	}
	sum := internalSingleSummary(rep, len(s.trace))
	p.collectReplicas(sum)
	return sum, nil
}

func runSingle(opts core.Options, reqs []workload.Request, p *probes) (*core.Report, error) {
	simulator, err := core.New(opts, reqs)
	if err != nil {
		return nil, err
	}
	p.sims = append(p.sims, simulator)
	return simulator.Run()
}

// coreOptions assembles the core options the public constructors build
// from cfg, for the configurations these workloads use: an NPU or
// NPU+PIM system priced by astra, or a roofline backend at the NPU's
// rates. The fingerprint check proves the two paths simulate the same
// system.
func coreOptions(cfg sim.Config) (core.Options, error) {
	var opts core.Options
	if err := cfg.Validate(); err != nil {
		return opts, err
	}
	if cfg.Hardware != "" || cfg.UseGPUEngine || cfg.Telemetry != nil || cfg.OnIteration != nil {
		return opts, fmt.Errorf("coreOptions: configuration outside the benchmark's workloads")
	}
	m, err := model.Lookup(cfg.Model)
	if err != nil {
		return opts, err
	}
	par, err := network.ParseParallelism(cfg.Parallelism.String())
	if err != nil {
		return opts, err
	}
	topo, err := network.Build(par, cfg.NPUs, cmp.Or(cfg.NPUGroups, 1), cfg.Link, cfg.Link)
	if err != nil {
		return opts, err
	}
	pim, err := core.ParsePIMMode(cfg.PIMType.String())
	if err != nil {
		return opts, err
	}
	if pim == core.PIMPool {
		topo.PIMPool = cmp.Or(cfg.PIMPoolSize, cfg.NPUs)
	}
	policy, err := sched.ParsePolicy(cfg.Scheduling.String())
	if err != nil {
		return opts, err
	}
	kvPolicy, err := kvcache.ParsePolicy(cfg.KVManage.String())
	if err != nil {
		return opts, err
	}
	prefix, err := kvcache.ParsePrefixMode(cfg.PrefixCache.String())
	if err != nil {
		return opts, err
	}
	opts = core.Options{
		Model:   m,
		Topo:    topo,
		NPU:     cfg.NPU,
		PIM:     cfg.PIM,
		PIMMode: pim,
		Sched: sched.Config{
			Policy:      policy,
			MaxBatch:    cfg.MaxBatch,
			BatchDelay:  simtime.FromStd(cfg.BatchDelay),
			SubBatches:  max(cfg.SubBatches, 1),
			SkipPrefill: cfg.SkipInitiation,
			ChunkTokens: cfg.PrefillChunk,
		},
		SelectiveBatching: cfg.SelectiveBatching,
		KVPolicy:          kvPolicy,
		KVPageTokens:      cfg.KVPageTokens,
		KVPrefix:          prefix,
		KVHostBytes:       int64(cfg.KVHostMemGB * (1 << 30)),
		Reuse: core.ReuseOptions{
			ModelRedundancy:  cfg.ModelRedundancyReuse,
			ComputationReuse: cfg.ComputationReuse,
		},
		ThroughputWindow: simtime.FromStd(cfg.ThroughputWindow),
	}
	pc := perfmodel.Config{Model: m, Topo: topo, PIMMode: pim, SelectiveBatching: cfg.SelectiveBatching, Reuse: opts.Reuse}
	if cfg.PerfModel == sim.PerfModelRoofline {
		hw := perfmodel.HardwareFromNPU(cfg.NPU)
		opts.Backend = func() (perfmodel.Backend, error) { return roofline.New(pc, hw) }
	} else {
		ao := astrabackend.Options{NPU: cfg.NPU, PIM: cfg.PIM}
		opts.Backend = func() (perfmodel.Backend, error) { return astrabackend.New(pc, ao) }
	}
	return opts, nil
}

// buildCluster assembles the internal cluster the public scenario
// builds, with every layer the cluster calls through an interface
// wrapped by the probes.
func buildCluster(sc sim.ClusterScenario, rec *obs.Recorder, p *probes) (*cluster.Cluster, error) {
	var roles []cluster.Role
	poolOpts := map[cluster.Role]core.Options{}
	if len(sc.Fleet) == 0 {
		opts, err := coreOptions(sc.Config)
		if err != nil {
			return nil, err
		}
		poolOpts[cluster.RoleUnified] = opts
		roles = make([]cluster.Role, sc.Replicas)
	} else {
		for _, rs := range sc.Fleet {
			if rs.Model != "" || rs.Hardware != "" || rs.PerfModelSet {
				return nil, fmt.Errorf("buildCluster: fleet spec %s outside the benchmark's workloads", rs)
			}
			role := cluster.RoleUnified
			cfg := sc.Config
			switch rs.Role {
			case sim.RolePrefill:
				role = cluster.RolePrefill
			case sim.RoleDecode:
				role = cluster.RoleDecode
				cfg.SkipInitiation = true
				cfg.PrefixCache = sim.PrefixCacheOff
			}
			opts, err := coreOptions(cfg)
			if err != nil {
				return nil, err
			}
			poolOpts[role] = opts
			for range rs.Count {
				roles = append(roles, role)
			}
		}
	}
	router, err := cluster.NewRouter(sc.Router.String())
	if err != nil {
		return nil, err
	}
	var decodeRouter cluster.Router
	disagg := roles[0] != cluster.RoleUnified
	if disagg {
		if decodeRouter, err = cluster.NewRouter(sc.DecodeRouter.String()); err != nil {
			return nil, err
		}
		decodeRouter = p.router(decodeRouter)
	}
	admission, err := cluster.NewAdmission(sc.Admission.String(), sc.AdmissionLimit)
	if err != nil {
		return nil, err
	}
	classes := make([]workload.Class, len(sc.Classes))
	for i, tc := range sc.Classes {
		dist, err := workload.ParseDist(tc.Dist)
		if err != nil {
			return nil, err
		}
		classes[i] = workload.Class{Name: tc.Name, Dist: dist, Rate: tc.RatePerSec,
			TTFT: simtime.FromStd(tc.TTFT), TPOT: simtime.FromStd(tc.TPOT), PrefixLen: tc.PrefixTokens}
	}
	newScaler := func() (cluster.Autoscaler, error) {
		if sc.Autoscaler == sim.ScaleNone {
			return nil, nil
		}
		a, err := cluster.NewAutoscaler(sc.Autoscaler.String(), cluster.AutoscalerConfig{
			QueueTarget: sc.ScaleQueueTarget, AttainTarget: sc.ScaleSLOTarget, AttainHigh: sc.ScaleSLOHigh})
		if err != nil {
			return nil, err
		}
		return p.autoscaler(a), nil
	}
	var scaler, prefillScaler, decodeScaler cluster.Autoscaler
	if disagg {
		if prefillScaler, err = newScaler(); err != nil {
			return nil, err
		}
		if decodeScaler, err = newScaler(); err != nil {
			return nil, err
		}
	} else if scaler, err = newScaler(); err != nil {
		return nil, err
	}
	var events []workload.FleetEvent
	if len(sc.FleetEvents) > 0 {
		if events, err = workload.ParseFleetEvents(sim.FleetEventsString(sc.FleetEvents)); err != nil {
			return nil, err
		}
	}
	return cluster.New(cluster.Config{
		Replicas: len(roles),
		Roles:    roles,
		NewReplica: func(i int, role cluster.Role) (*core.Simulator, error) {
			opts, ok := poolOpts[role]
			if !ok {
				return nil, fmt.Errorf("buildCluster: no replica configuration for role %s", role)
			}
			opts.Obs = rec
			opts.ObsReplica = i
			opts.Backend = p.backend(opts.Backend)
			s, err := core.New(opts, nil)
			if err == nil {
				p.sims = append(p.sims, s)
			}
			return s, err
		},
		Router:         p.router(router),
		DecodeRouter:   decodeRouter,
		Admission:      p.admission(admission),
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
		OnRecord:       p.onRecord(),
	})
}

func obsDetail(d sim.TraceDetail) obs.Detail {
	switch d {
	case sim.TraceDecisions:
		return obs.DetailDecisions
	case sim.TraceFull:
		return obs.DetailFull
	default:
		return obs.DetailSpans
	}
}

// noStream stands in for a replay stream that is opened only when the
// run starts, so the scenario can be validated at set-up.
type noStream struct{}

func (noStream) Next() (sim.Request, bool) { return sim.Request{}, false }

// publicStream lifts a public RequestStream into the internal stream
// form exactly as the public cluster API does: arrivals pass through
// time.Duration, so both paths see the same nanosecond-rounded clock.
type publicStream struct{ s sim.RequestStream }

func (a publicStream) Next() (workload.Request, bool) {
	r, ok := a.s.Next()
	if !ok {
		return workload.Request{}, false
	}
	return internalRequest(r, 0), true
}

func (a publicStream) Err() error {
	if e, ok := a.s.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func (a publicStream) Target() int {
	if t, ok := a.s.(interface{ Target() int }); ok {
		return t.Target()
	}
	return 0
}

func internalRequest(r sim.Request, id int) workload.Request {
	return workload.Request{
		ID:           id,
		InputLen:     r.InputLen,
		OutputLen:    r.OutputLen,
		Arrival:      simtime.Time(simtime.FromStd(r.Arrival)),
		Class:        r.Class,
		PrefixLen:    r.PrefixLen,
		PrefixKey:    r.PrefixKey,
		Session:      r.Session,
		Turn:         r.Turn,
		SessionTurns: r.SessionTurns,
	}
}

func toWorkload(trace []sim.Request) []workload.Request {
	out := make([]workload.Request, len(trace))
	for i, r := range trace {
		out[i] = internalRequest(r, i)
	}
	return out
}

// slos maps class names to SLO targets, as the cluster does.
func slos(classes []sim.TrafficClass) map[string]metrics.SLO {
	m := make(map[string]metrics.SLO, len(classes))
	for _, c := range classes {
		m[c.Name] = metrics.SLO{TTFT: simtime.FromStd(c.TTFT), TPOT: simtime.FromStd(c.TPOT)}
	}
	return m
}
