// Package core implements the LLMServingSim orchestrator: the iterative
// loop of Fig. 4 that alternates request scheduling, performance-model
// latency estimation, and scheduler feedback, advancing the simulated
// clock by each iteration's estimated latency.
//
// How an iteration's latency is estimated is delegated to a pluggable
// perfmodel.Backend (the astra adapter reproduces the paper's
// engine/graph/system pipeline; the roofline backend prices iterations
// analytically); core owns everything serving-side: admission, batching,
// KV-cache management, and per-request accounting.
package core

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	astrabackend "repro/internal/perfmodel/astra"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// PIMMode selects how PIM devices participate (the artifact's pim_type).
// It is an alias of perfmodel.PIMMode, kept here so existing core
// callers compile unchanged.
type PIMMode = perfmodel.PIMMode

const (
	// PIMNone runs a homogeneous NPU system.
	PIMNone = perfmodel.PIMNone
	// PIMLocal pairs each NPU with a directly-attached PIM device
	// (Fig. 5(a)).
	PIMLocal = perfmodel.PIMLocal
	// PIMPool places PIM devices in a separate pool reached over the
	// interconnect (Fig. 5(b)).
	PIMPool = perfmodel.PIMPool
)

// ParsePIMMode converts the artifact's CLI values ("none", "local",
// "pool").
func ParsePIMMode(s string) (PIMMode, error) { return perfmodel.ParsePIMMode(s) }

// ReuseOptions toggles the paper's two result-reusing techniques
// independently (Section IV-C). Alias of perfmodel.ReuseOptions.
type ReuseOptions = perfmodel.ReuseOptions

// ReuseAll enables both techniques (the simulator's default).
func ReuseAll() ReuseOptions { return perfmodel.ReuseAll() }

// ReuseNone disables both, reproducing conventional per-layer simulation.
func ReuseNone() ReuseOptions { return perfmodel.ReuseNone() }

// Options configures a Simulator.
type Options struct {
	Model model.Config
	Topo  network.Topology

	// Backend, when non-nil, supplies the performance model pricing each
	// iteration. When nil, the astra adapter is built from the NPU/PIM/
	// EngineFactory fields below — the artifact's original pipeline.
	Backend perfmodel.Factory

	NPU config.NPUConfig
	PIM config.PIMConfig // used when PIMMode != PIMNone
	// EngineFactory optionally overrides the NPU engine of the default
	// astra backend (e.g. with the GPU reference model for validation
	// runs). Ignored when Backend is set.
	EngineFactory func() (engine.Engine, error)

	PIMMode PIMMode

	Sched sched.Config
	// SelectiveBatching distributes each request's full-head attention
	// across the tensor-parallel group (Fig. 3); off means Megatron-style
	// head-split attention.
	SelectiveBatching bool

	KVPolicy     kvcache.Policy
	KVPageTokens int   // vLLM block size; defaults to 16
	KVReserve    int64 // bytes of device memory reserved beyond weights
	// KVPrefix enables shared-prefix caching in the KV manager (strictly
	// opt-in; requires the paged policy). KVHostBytes bounds the tiered
	// mode's host spill tier (0 = unbounded).
	KVPrefix    kvcache.PrefixMode
	KVHostBytes int64

	Reuse ReuseOptions

	// ThroughputWindow is the bucket width for throughput-over-time
	// series; defaults to 10 simulated seconds.
	ThroughputWindow simtime.Duration

	// Obs, when non-nil, records request spans, iteration events, and
	// KV operations for this instance; ObsReplica labels them with the
	// owning cluster slot (0 for a standalone simulator). Telemetry is
	// strictly observational: enabling it never changes simulation
	// results.
	Obs        *obs.Recorder
	ObsReplica int
}

// perfConfig derives the backend-independent performance-model
// configuration from the options.
func (o Options) perfConfig() perfmodel.Config {
	return perfmodel.Config{
		Model:             o.Model,
		Topo:              o.Topo,
		PIMMode:           o.PIMMode,
		SelectiveBatching: o.SelectiveBatching,
		Reuse:             o.Reuse,
	}
}

// Report is the outcome of a serving simulation run.
type Report struct {
	Model model.Config
	Topo  network.Topology

	// Backend names the performance model that priced the iterations
	// ("astra", "roofline/a100", ...).
	Backend string

	Iterations int
	SimEnd     simtime.Time

	PromptTPS, GenTPS float64 // mean over the run
	Buckets           []metrics.Bucket

	Finished []sched.Finished
	Rejected []sched.Rejected // requests refused as unservable
	Latency  metrics.LatencyStats

	KV kvcache.Stats

	// Host-side instrumentation (the paper's "simulation time"): exact
	// for runs of at most 64 iterations, sampled estimates beyond (see
	// Simulator.Step).
	Host      metrics.ComponentTimes
	WallClock time.Duration
	NPUStats  engine.StackStats // zero unless the backend is engine-backed
	PIMStats  engine.StackStats

	// BlocksSimulated and BlocksShifted count the decoder blocks the
	// backend simulated and time-shifted (zero unless it counts blocks,
	// as the astra adapter does).
	BlocksSimulated, BlocksShifted int64
}

// Simulator is one configured LLMServingSim instance.
type Simulator struct {
	// OnIteration, when non-nil, is invoked synchronously after every
	// completed iteration. Set it before the first Step/Run call.
	OnIteration func(IterationStats)

	// OnRequestComplete, when non-nil, is invoked synchronously for each
	// request that finishes serving, in completion order — the
	// per-request record pipeline cluster simulations aggregate over.
	// Set it before the first Step/Run call.
	OnRequestComplete func(sched.Finished)
	emittedFinished   int

	// OnRequestReject, when non-nil, is invoked synchronously for each
	// request the scheduler refuses as unservable (KV demand beyond the
	// instance's context limit or whole cache). Set it before the first
	// Step/Run call.
	OnRequestReject func(sched.Rejected)
	emittedRejected int

	opts Options

	backend perfmodel.Backend

	kv        *kvcache.Manager
	scheduler *sched.Scheduler
	obsFull   bool // cached Options.Obs.Full() for the Step hot path
	streaming bool // see StreamMetrics
	collector metrics.Collector
	wall      metrics.SampledDuration // host time inside Step (see HostTimes)
}

// New validates options and assembles a simulator for the given trace.
func New(opts Options, reqs []workload.Request) (*Simulator, error) {
	if err := opts.Model.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Topo.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Model.SplitTensorParallel(opts.Topo.TP); err != nil {
		return nil, err
	}
	if opts.PIMMode == PIMPool && opts.Topo.PIMPool <= 0 {
		return nil, fmt.Errorf("core: pim pool mode requires PIM nodes in the topology")
	}
	if opts.KVPageTokens <= 0 {
		opts.KVPageTokens = 16
	}
	if opts.ThroughputWindow <= 0 {
		opts.ThroughputWindow = 10 * simtime.Second
	}
	if opts.Sched.SubBatches <= 0 {
		opts.Sched.SubBatches = 1
	}
	if opts.Sched.SubBatches > 1 && opts.PIMMode == PIMNone {
		return nil, fmt.Errorf("core: sub-batch interleaving requires a PIM configuration")
	}

	s := &Simulator{opts: opts}

	factory := opts.Backend
	if factory == nil {
		pc := opts.perfConfig()
		ao := astrabackend.Options{NPU: opts.NPU, PIM: opts.PIM, EngineFactory: opts.EngineFactory}
		factory = func() (perfmodel.Backend, error) { return astrabackend.New(pc, ao) }
	}
	backend, err := factory()
	if err != nil {
		return nil, err
	}
	s.backend = backend

	// KV budget: device memory across the system minus model weights,
	// minus the configured reserve. Weights are sharded TP x PP ways, so
	// per-device weight share = total/NPUs; KV is likewise sharded, so the
	// scheduler reasons about the aggregate budget.
	npus := int64(opts.Topo.NPUNodes())
	totalMem := backend.DeviceMemoryBytes() * npus
	budget := totalMem - opts.Model.WeightBytes() - opts.KVReserve
	if budget <= 0 {
		return nil, fmt.Errorf("core: model %s weights (%d B) exceed system memory (%d B across %d devices)",
			opts.Model.Name, opts.Model.WeightBytes(), totalMem, npus)
	}
	s.kv, err = kvcache.New(kvcache.Config{
		Policy:        opts.KVPolicy,
		PageTokens:    opts.KVPageTokens,
		BytesPerToken: opts.Model.KVBytesPerToken(),
		CapacityBytes: budget,
		MaxSeqLen:     opts.Model.MaxSeqLen,
		Prefix:        opts.KVPrefix,
		HostBytes:     opts.KVHostBytes,
	})
	if err != nil {
		return nil, err
	}
	opts.Sched.Prefix = opts.KVPrefix != kvcache.PrefixOff
	opts.Sched.Obs = opts.Obs
	opts.Sched.ObsReplica = opts.ObsReplica
	s.scheduler, err = sched.New(opts.Sched, s.kv, reqs)
	if err != nil {
		return nil, err
	}
	s.obsFull = opts.Obs.Full()
	s.kv.SetObserver(opts.Obs, opts.ObsReplica, s.scheduler.Clock)
	return s, nil
}

// KV exposes the KV manager (read-only use by callers, e.g. for stats).
func (s *Simulator) KV() *kvcache.Manager { return s.kv }

// Backend exposes the performance model pricing this simulator's
// iterations.
func (s *Simulator) Backend() perfmodel.Backend { return s.backend }

// stackProvider is implemented by engine-backed backends (the astra
// adapter) that expose their execution-engine stacks.
type stackProvider interface {
	NPUStack() *engine.Stack
	PIMStack() *engine.Stack
}

// blockCounter is implemented by backends that simulate a model's
// decoder blocks one by one and may time-shift repeats (the astra
// adapter): the blocks simulated and shifted since the last ResetStats.
type blockCounter interface {
	BlockCounts() (simulated, shifted int64)
}

// NPUStack exposes the NPU execution engine stack of an engine-backed
// performance model (nil for analytical backends such as roofline).
func (s *Simulator) NPUStack() *engine.Stack {
	if p, ok := s.backend.(stackProvider); ok {
		return p.NPUStack()
	}
	return nil
}

// PIMStack exposes the PIM execution engine stack (nil when PIMMode is
// none or the backend is not engine-backed).
func (s *Simulator) PIMStack() *engine.Stack {
	if p, ok := s.backend.(stackProvider); ok {
		return p.PIMStack()
	}
	return nil
}
