// Command llmservingsim runs a serving simulation from the command line,
// exposing the artifact's simulation parameters (model_name, npu_num,
// max_batch, batch_delay, scheduling, parallel, npu_group, npu_mem,
// kv_manage, pim_type, sub_batch, dataset, network, output, gen,
// fast_run).
//
// Example:
//
//	llmservingsim -model gpt3-7b -npu-num 4 -parallel tensor \
//	    -dataset trace.tsv -output run1
//
// writes run1-throughput.tsv and run1-simulation-time.tsv and prints a
// summary to standard output. The enum-valued flags (-parallel,
// -scheduling, -kv-manage, -pim-type, and the cluster policies) are
// parsed into the package's typed policies, so invalid values fail at
// flag parsing; -list-policies prints every accepted choice.
// Interrupting the run (Ctrl-C) cancels the simulation at the next
// iteration boundary; -progress N prints a progress line every N
// iterations.
//
// Cluster mode (-replicas N with N > 1) fans the arrival stream out
// over N identical replicas through an admission gate (-admission,
// -admission-limit) and a routing policy (-router), printing per-class
// latency/SLO tables. Mixed traffic comes from -classes (optionally
// ramped with -ramp) or from a -dataset TSV with a class column:
//
//	llmservingsim -model gpt3-7b -npu-num 4 -replicas 8 \
//	    -router least-loaded -admission queue-cap -admission-limit 32 \
//	    -classes "chat:sharegpt:3:1000:80,api:alpaca:9:500:50" \
//	    -synth-n 512 -output cap
//
// Latency estimation is pluggable (-perf-model astra|roofline;
// -hardware names an accelerator preset, see -list-hardware), and
// -fleet describes a heterogeneous cluster of replica groups, e.g.
//
//	llmservingsim -model gpt3-7b -npu-num 4 \
//	    -fleet "2xgpt3-7b@rtx3090:roofline,2xgpt3-7b@a100:roofline" \
//	    -router least-loaded -classes "chat:sharegpt:6:1000:80" -synth-n 512
//
// Fleets can be dynamic: -autoscaler resizes the fleet every
// -scale-tick of simulated time between -min-replicas and
// -max-replicas (with -provision-delay of cold start per scale-up;
// the queue-depth policy reads -scale-target, slo-target reads
// -slo-scale-target, scheduled follows -scale-schedule "0:2,60:8"),
// and -fleet-events injects failures, planned scales, and graceful
// drains ("fail@30:2,scale@60:8,drain@90:0"). Either flag enables the
// cluster layer; -output then also writes the fleet-size timeline to
// *-fleet.tsv.
//
// A fleet whose groups carry #prefill / #decode role suffixes runs
// disaggregated: prefill replicas compute first tokens, then hand each
// request's KV cache to a decode replica over the interconnect
// (-decode-router places the decode stage; -autoscaler scales the two
// pools independently between -prefill-min/-prefill-max and
// -decode-min/-decode-max):
//
//	llmservingsim -model gpt2 -npu-num 2 \
//	    -fleet "2xgpt2#prefill,2xgpt2#decode" -decode-router least-loaded \
//	    -classes "chat:sharegpt:6:1000:80" -synth-n 512
//
// The whole command is run(args, stdout, stderr), which returns its
// error instead of exiting, so tests drive it in-process; main only
// maps the error to an exit status. Each flag group (config, fleet,
// workload, sessions, autoscaling, telemetry, output) registers its
// flags and builds its part of the run in its own function.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	llmservingsim "repro"
	"repro/internal/config"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.As(err, new(usageError)) { // the flag set has reported those
			fmt.Fprintln(os.Stderr, "llmservingsim:", err)
		}
		os.Exit(1)
	}
}

// usageError is a command-line parse failure, already reported on
// stderr with the usage text.
type usageError struct{ error }

// run parses args, runs the simulation they describe, prints its report
// to stdout and writes the requested files. Diagnostics and progress go
// to stderr. Interrupting the process cancels the run.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("llmservingsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Flags bind straight into the scenario where they map onto one of
	// its fields; the groups keep the specs that still need parsing.
	sc := llmservingsim.ClusterScenario{Name: "cli", Config: llmservingsim.DefaultConfig()}
	var (
		lf listFlags
		cf configFlags
		ff fleetFlags
		wf workloadFlags
		sf sessionFlags
		af autoscaleFlags
		tf telemetryFlags
		of outputFlags
	)
	lf.register(fs)
	cf.register(fs, &sc.Config)
	ff.register(fs, &sc)
	wf.register(fs)
	sf.register(fs)
	af.register(fs, &sc)
	tf.register(fs)
	of.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if lf.print(stdout) {
		return nil
	}

	if err := ff.apply(fs, &sc); err != nil {
		return err
	}
	if err := af.apply(&sc); err != nil {
		return err
	}
	if err := cf.apply(&sc.Config); err != nil {
		return err
	}
	if of.progress > 0 && !wf.stream {
		// Streaming runs report request-level progress through the
		// arrival stream instead (see progressStream).
		every := of.progress
		sc.Config.OnIteration = func(it llmservingsim.Iteration) {
			if (it.Index+1)%every == 0 {
				fmt.Fprintf(stderr, "iteration %d  batch %d  sim clock %.2fs\n",
					it.Index+1, it.BatchSize, it.ClockSec)
			}
		}
	}
	src, err := wf.source(&sf, of.progress, stderr)
	defer closeWith(&err, src.close)
	if err != nil {
		return err
	}
	if wf.recordPath != "" {
		var finish func() error
		finish, err = wf.record(fs, &src, stderr)
		defer closeWith(&err, finish)
		if err != nil {
			return err
		}
	}
	stopProfiles, err := of.startProfiles(stderr)
	defer closeWith(&err, stopProfiles)
	if err != nil {
		return err
	}
	tel := tf.build()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first interrupt starts the graceful stop, restore
		// default SIGINT handling so a second Ctrl-C force-quits.
		<-ctx.Done()
		stop()
	}()

	if sc.Replicas > 1 || len(sc.Fleet) > 0 || len(sc.FleetEvents) > 0 || sc.Autoscaler != llmservingsim.ScaleNone ||
		wf.stream || sf.population != "" || wf.replayPath != "" {
		sc.Classes, sc.Trace, sc.TraceStream, sc.Telemetry, sc.StreamMetrics = src.classes, src.trace, src.stream, tel, wf.stream
		var closeRequests func() error
		closeRequests, err = of.apply(&sc)
		defer closeWith(&err, closeRequests)
		if err != nil {
			return err
		}
		if err := runCluster(ctx, sc, of.output, stdout); err != nil {
			return err
		}
		return tf.write(tel, stdout)
	}

	sc.Config.Telemetry = tel
	sim, err := llmservingsim.NewFromConfig(sc.Config, src.trace)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := sim.RunContext(ctx)
	if errors.Is(err, context.Canceled) {
		// Graceful interrupt: report the iterations completed so far.
		rep = sim.Report()
		fmt.Fprintf(stdout, "interrupted      after %d iterations (partial results)\n", rep.Iterations)
	} else if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "model            %s\n", rep.Model)
	fmt.Fprintf(stdout, "topology         %s\n", rep.Topology)
	fmt.Fprintf(stdout, "perf model       %s\n", rep.Backend)
	fmt.Fprintf(stdout, "requests         %d\n", rep.Latency.Count)
	fmt.Fprintf(stdout, "iterations       %d\n", rep.Iterations)
	fmt.Fprintf(stdout, "simulated time   %.2f s\n", rep.SimEndSec)
	fmt.Fprintf(stdout, "prompt tput      %.1f tok/s\n", rep.PromptTPS)
	fmt.Fprintf(stdout, "gen tput         %.1f tok/s\n", rep.GenTPS)
	fmt.Fprintf(stdout, "mean latency     %.3f s (p50 %.3f, p95 %.3f, p99 %.3f, ttft %.3f, tpot %.4f)\n",
		rep.Latency.MeanSec, rep.Latency.P50Sec, rep.Latency.P95Sec, rep.Latency.P99Sec,
		rep.Latency.TTFTSec, rep.Latency.TPOTSec)
	fmt.Fprintf(stdout, "kv evict/reload  %d / %d\n", rep.KV.Evictions, rep.KV.Reloads)
	fmt.Fprintf(stdout, "cache hit rate   %.1f %%\n", 100*rep.EngineCacheHitRate)
	fmt.Fprintf(stdout, "simulation time  %v (sched %v, engine %v, convert %v, astra %v)\n",
		time.Since(start).Round(time.Millisecond),
		rep.SimTime.Scheduler.Round(time.Millisecond),
		rep.SimTime.ExecutionEngine.Round(time.Millisecond),
		rep.SimTime.GraphConverter.Round(time.Millisecond),
		rep.SimTime.AstraSim.Round(time.Millisecond))
	if of.output != "" {
		if err := writeFile(of.output+"-throughput.tsv", rep.WriteThroughputTSV); err != nil {
			return err
		}
		if err := writeFile(of.output+"-simulation-time.tsv", rep.WriteSimulationTimeTSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s-throughput.tsv, %s-simulation-time.tsv\n", of.output, of.output)
	}
	return tf.write(tel, stdout)
}

// closeWith runs a cleanup, if there is one, and keeps its error in
// *err unless *err already holds one.
func closeWith(err *error, cleanup func() error) {
	if cleanup == nil {
		return
	}
	if cerr := cleanup(); *err == nil {
		*err = cerr
	}
}

// policyVar binds an enum-valued flag whose help lists the choices the
// package's enum table accepts for it.
func policyVar(fs *flag.FlagSet, v flag.Value, name, what string) {
	fs.Var(v, name, what+": "+strings.Join(llmservingsim.PolicyChoices(name), "|"))
}

// listFlags print a catalogue and exit.
type listFlags struct{ models, hardware, policies bool }

func (l *listFlags) register(fs *flag.FlagSet) {
	fs.BoolVar(&l.models, "list-models", false, "print known models and exit")
	fs.BoolVar(&l.hardware, "list-hardware", false, "print known hardware presets and exit")
	fs.BoolVar(&l.policies, "list-policies", false, "print every policy registry and enum flag's choices (routers, admission, autoscalers, scheduling, perf models, prefix cache modes, kv management, parallelism, pim types, trace detail) and exit")
}

// print writes the requested catalogue and reports whether one was
// requested. -list-policies prints one "kind<TAB>name" row per choice:
// routers, admission and autoscalers from internal/cluster's policy
// tables, then every other enum-valued flag from the enum table.
func (l *listFlags) print(w io.Writer) bool {
	switch {
	case l.models:
		fmt.Fprintln(w, strings.Join(llmservingsim.Models(), "\n"))
	case l.hardware:
		fmt.Fprintln(w, strings.Join(llmservingsim.Hardwares(), "\n"))
	case l.policies:
		registries := map[string][]string{"router": llmservingsim.Routers(),
			"admission": llmservingsim.Admissions(), "autoscaler": llmservingsim.Autoscalers()}
		for _, kind := range []string{"router", "admission", "autoscaler", "scheduling", "perf-model", "prefix-cache", "kv-manage", "parallel", "pim-type", "trace-detail"} {
			names, ok := registries[kind]
			if !ok {
				names = llmservingsim.PolicyChoices(kind)
			}
			for _, name := range names {
				fmt.Fprintf(w, "%s\t%s\n", kind, name)
			}
		}
	default:
		return false
	}
	return true
}

// configFlags are the artifact's single-instance parameters, shared by
// every replica of a cluster run.
type configFlags struct {
	npuMem                 int
	subBatch, noReuse      bool
	networkCfg, npuCfgPath string
}

func (c *configFlags) register(fs *flag.FlagSet, cfg *llmservingsim.Config) {
	fs.IntVar(&c.npuMem, "npu-mem", 0, "NPU local memory in GB (0 = Table I default)")
	fs.IntVar(&cfg.PIMPoolSize, "pim-pool", 0, "PIM pool size (pool mode; 0 = npu-num)")
	fs.BoolVar(&c.subBatch, "sub-batch", false, "enable NeuPIMs sub-batch interleaving")
	fs.BoolVar(&c.noReuse, "no-reuse", false, "disable all result-reuse optimisations")
	fs.StringVar(&c.networkCfg, "network", "", "JSON link config file (bandwidth/latency)")
	fs.StringVar(&c.npuCfgPath, "npu-config", "", "JSON NPU config file")
	policyVar(fs, &cfg.PerfModel, "perf-model", "performance model")
	fs.StringVar(&cfg.Hardware, "hardware", "", "accelerator preset the backend models (see -list-hardware)")
	fs.StringVar(&cfg.Model, "model", cfg.Model, "model name (see -list-models)")
	fs.IntVar(&cfg.NPUs, "npu-num", cfg.NPUs, "number of NPUs")
	fs.IntVar(&cfg.MaxBatch, "max-batch", 0, "maximum batch size (0 = unlimited)")
	fs.DurationVar(&cfg.BatchDelay, "batch-delay", 0, "delay to accumulate arrivals before batching")
	policyVar(fs, &cfg.Scheduling, "scheduling", "scheduling policy")
	fs.IntVar(&cfg.PrefillChunk, "prefill-chunk", 0, "chunked scheduling: prompt tokens per prefill chunk (0 = 256)")
	policyVar(fs, &cfg.PrefixCache, "prefix-cache", "shared-prefix KV caching")
	fs.Float64Var(&cfg.KVHostMemGB, "kv-host-mem", 0, "tiered prefix cache: host spill tier size in GB (0 = unbounded)")
	policyVar(fs, &cfg.Parallelism, "parallel", "parallelism")
	fs.IntVar(&cfg.NPUGroups, "npu-group", cfg.NPUGroups, "NPU group count for hybrid parallelism")
	policyVar(fs, &cfg.KVManage, "kv-manage", "KV cache management")
	policyVar(fs, &cfg.PIMType, "pim-type", "PIM usage")
	fs.BoolVar(&cfg.SelectiveBatching, "selective", false, "enable selective batching across TP workers")
	fs.BoolVar(&cfg.UseGPUEngine, "gpu", false, "use the GPU reference engine instead of the NPU")
	fs.BoolVar(&cfg.SkipInitiation, "gen", false, "skip the initiation phase (generation only)")
}

// apply sets the configuration's derived fields and loads the -network
// and -npu-config JSON files.
func (c *configFlags) apply(cfg *llmservingsim.Config) error {
	if c.subBatch {
		cfg.SubBatches = 2
	}
	if c.noReuse {
		cfg.ModelRedundancyReuse, cfg.ComputationReuse = false, false
	}
	if c.npuMem > 0 {
		cfg.NPU.MemoryBytes = int64(c.npuMem) * config.GB
	}
	var err error
	if c.networkCfg != "" {
		err = config.LoadJSON(c.networkCfg, &cfg.Link)
	}
	if err == nil && c.npuCfgPath != "" {
		err = config.LoadJSON(c.npuCfgPath, &cfg.NPU)
	}
	return err
}

// fleetFlags shape the cluster: its replicas and their routing and
// admission policies.
type fleetFlags struct{ fleet string }

func (f *fleetFlags) register(fs *flag.FlagSet, sc *llmservingsim.ClusterScenario) {
	fs.IntVar(&sc.Replicas, "replicas", 1, "cluster mode: number of serving replicas (>1 enables the cluster layer)")
	fs.StringVar(&f.fleet, "fleet", "", "heterogeneous fleet COUNTxMODEL[@HARDWARE][:PERFMODEL][#ROLE],... (enables the cluster layer; #prefill/#decode pools disaggregate; see -list-hardware)")
	policyVar(fs, &sc.Router, "router", "cluster routing policy")
	fs.Var(&sc.DecodeRouter, "decode-router", "disaggregated clusters: decode-stage routing policy (same choices as -router)")
	policyVar(fs, &sc.Admission, "admission", "cluster admission policy")
	fs.Int64Var(&sc.AdmissionLimit, "admission-limit", 0, "admission bound: queued requests/replica (queue-cap) or cluster tokens (token-budget)")
}

// apply parses -fleet into the scenario. Without an explicit -replicas
// the replica count derives from the fleet; an explicit -replicas must
// match the fleet total (Validate enforces it).
func (f *fleetFlags) apply(fs *flag.FlagSet, sc *llmservingsim.ClusterScenario) error {
	if f.fleet == "" {
		return nil
	}
	var err error
	if sc.Fleet, err = llmservingsim.ParseFleet(f.fleet); err != nil {
		return err
	}
	replicasSet := false
	fs.Visit(func(fl *flag.Flag) { replicasSet = replicasSet || fl.Name == "replicas" })
	if !replicasSet {
		sc.Replicas = 0
	}
	return nil
}

// autoscaleFlags make the fleet dynamic: an autoscaling policy and its
// bounds, plus scripted fleet events.
type autoscaleFlags struct{ schedule, events string }

func (a *autoscaleFlags) register(fs *flag.FlagSet, sc *llmservingsim.ClusterScenario) {
	policyVar(fs, &sc.Autoscaler, "autoscaler", "fleet autoscaling policy")
	fs.DurationVar(&sc.ScaleTick, "scale-tick", 10*time.Second, "autoscaler evaluation interval (simulated time)")
	fs.IntVar(&sc.MinReplicas, "min-replicas", 0, "autoscaling floor (0 = 1)")
	fs.IntVar(&sc.MaxReplicas, "max-replicas", 0, "autoscaling ceiling (0 = initial replicas)")
	fs.IntVar(&sc.ScaleQueueTarget, "scale-target", 8, "queue-depth autoscaler: target queued requests per replica")
	fs.Float64Var(&sc.ScaleSLOTarget, "slo-scale-target", 0.95, "slo-target autoscaler: scale up below this interval attainment")
	fs.Float64Var(&sc.ScaleSLOHigh, "slo-scale-high", 1, "slo-target autoscaler: scale down at or above this interval attainment")
	fs.StringVar(&a.schedule, "scale-schedule", "", "scheduled autoscaler: step plan T_S:REPLICAS,... (e.g. 0:2,60:8,120:2)")
	fs.DurationVar(&sc.ProvisionDelay, "provision-delay", 0, "cold-start delay of scaled-up replicas (simulated time)")
	fs.IntVar(&sc.PrefillMinReplicas, "prefill-min", 0, "disaggregated autoscaling: prefill pool floor (0 = 1)")
	fs.IntVar(&sc.PrefillMaxReplicas, "prefill-max", 0, "disaggregated autoscaling: prefill pool ceiling (0 = initial pool size)")
	fs.IntVar(&sc.DecodeMinReplicas, "decode-min", 0, "disaggregated autoscaling: decode pool floor (0 = 1)")
	fs.IntVar(&sc.DecodeMaxReplicas, "decode-max", 0, "disaggregated autoscaling: decode pool ceiling (0 = initial pool size)")
	fs.StringVar(&a.events, "fleet-events", "", "fleet events fail@T:R[:reject]|scale@T:N|drain@T:R,... (enables the cluster layer)")
}

// apply parses the fleet events and the scheduled autoscaler's plan
// into the scenario.
func (a *autoscaleFlags) apply(sc *llmservingsim.ClusterScenario) error {
	var err error
	if a.events != "" {
		sc.FleetEvents, err = llmservingsim.ParseFleetEvents(a.events)
	}
	if err == nil && a.schedule != "" {
		sc.ScaleSchedule, err = llmservingsim.ParseScaleSchedule(a.schedule)
	}
	return err
}

// workloadFlags select the arrival source and -record-trace.
type workloadFlags struct {
	dataset, synth, classes, ramp, replayPath, recordPath string
	synthN, requests                                      int
	synthRate                                             float64
	seed                                                  int64
	stream                                                bool
}

func (w *workloadFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&w.dataset, "dataset", "", "TSV request trace (input/output tokens + arrival ms)")
	fs.StringVar(&w.synth, "synth", "", "synthesise a trace instead: sharegpt|alpaca")
	fs.IntVar(&w.synthN, "synth-n", 128, "synthetic trace request count")
	fs.Float64Var(&w.synthRate, "synth-rate", 4, "synthetic Poisson arrival rate (req/s)")
	fs.Int64Var(&w.seed, "seed", 1, "synthetic trace random seed")
	fs.StringVar(&w.classes, "classes", "", "traffic classes name:dist:rate[:ttft_ms[:tpot_ms[:prefix_toks]]],... (synthesises a mixed trace)")
	fs.IntVar(&w.requests, "requests", 0, "request count for -classes/-synth traffic (overrides -synth-n; spelled for large -stream runs)")
	fs.BoolVar(&w.stream, "stream", false, "pull -classes arrivals from the generator and stream per-request metrics: memory stays flat in the request count (enables the cluster layer)")
	fs.StringVar(&w.ramp, "ramp", "", "arrival-rate ramp from:to[:over_s] for -classes traffic")
	fs.StringVar(&w.replayPath, "replay", "", "replay a recorded trace file as the arrival source (versioned format; -classes still supplies SLO targets; enables the cluster layer)")
	fs.StringVar(&w.recordPath, "record-trace", "", "record the arrival stream to a versioned replay trace file")
}

// source is a run's arrivals: a materialized trace, or for -stream and
// streamed -replay runs a stream the engine pulls.
type source struct {
	classes []llmservingsim.TrafficClass
	trace   []llmservingsim.Request
	stream  llmservingsim.RequestStream
	close   func() error // releases an open replay file
}

// source builds the arrival source the flags select. progress > 0 wraps
// a stream in per-request progress lines on stderr.
func (w *workloadFlags) source(sf *sessionFlags, progress int, stderr io.Writer) (source, error) {
	var src source
	var err error
	if w.classes != "" {
		src.classes, err = llmservingsim.ParseTrafficClasses(w.classes)
	}
	var ramp llmservingsim.Ramp
	if err == nil && w.ramp != "" {
		ramp, err = llmservingsim.ParseRamp(w.ramp)
	}
	if err != nil {
		return src, err
	}
	pop, sessions, err := sf.build(w.classes != "")
	if err != nil {
		return src, err
	}
	n := w.synthN
	if w.requests > 0 {
		n = w.requests
	}

	switch {
	case w.replayPath != "" && w.stream:
		var rs *llmservingsim.ReplayStream
		if rs, err = llmservingsim.OpenReplayTrace(w.replayPath); err == nil {
			src.stream, src.close = rs, rs.Close
		}
	case w.replayPath != "":
		src.trace, err = llmservingsim.LoadReplayTrace(w.replayPath)
	case w.stream && sf.population != "":
		src.stream, err = llmservingsim.NewPopulationStream(src.classes, pop, sessions, n, w.seed)
	case w.stream:
		if w.classes == "" {
			return src, errors.New("-stream requires -classes traffic (the generator is the stream)")
		}
		src.stream, err = llmservingsim.NewMultiClassStream(src.classes, n, ramp, w.seed)
	case sf.population != "":
		src.trace, err = llmservingsim.PopulationTrace(src.classes, pop, sessions, n, w.seed)
	case w.dataset != "":
		src.trace, err = llmservingsim.LoadTrace(w.dataset)
	case w.classes != "":
		src.trace, err = llmservingsim.MultiClassTrace(src.classes, n, ramp, w.seed)
	case w.synth == "sharegpt":
		src.trace, err = llmservingsim.ShareGPTTrace(n, w.synthRate, w.seed)
	case w.synth == "alpaca":
		src.trace, err = llmservingsim.AlpacaTrace(n, w.synthRate, w.seed)
	default:
		err = errors.New("provide -dataset FILE, -classes SPEC, -population SPEC, -replay FILE, or -synth sharegpt|alpaca")
	}
	if err == nil && src.stream != nil && progress > 0 {
		src.stream = &progressStream{inner: src.stream, every: progress, w: stderr}
	}
	return src, err
}

// record writes the arrivals to -record-trace: a trace up front, a
// stream as the engine pulls it (finished by the returned func).
func (w *workloadFlags) record(fs *flag.FlagSet, src *source, stderr io.Writer) (func() error, error) {
	gen := generatorFingerprint(fs)
	if src.stream == nil {
		if err := llmservingsim.SaveReplayTrace(w.recordPath, src.trace, gen); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "recorded %d requests to %s\n", len(src.trace), w.recordPath)
		return nil, nil
	}
	rec, closeFn, err := llmservingsim.RecordReplayFile(w.recordPath, src.stream, gen)
	if err != nil {
		return nil, err
	}
	src.stream = rec
	return func() error {
		if err := closeFn(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "recorded trace to %s\n", w.recordPath)
		return nil
	}, nil
}

// generatorFingerprint renders the workload-shaping flags the user set
// into the replay-trace header, so a recorded trace names the exact
// generator configuration that produced it. Visit iterates in lexical
// order, so the fingerprint is deterministic for a given command line.
func generatorFingerprint(fs *flag.FlagSet) string {
	parts := []string{"llmservingsim", "v" + llmservingsim.Version}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "classes", "dataset", "population", "ramp", "replay", "requests",
			"seed", "sessions", "stream", "synth", "synth-n", "synth-rate":
			parts = append(parts, "-"+f.Name+"="+f.Value.String())
		}
	})
	return strings.Join(parts, " ")
}

// sessionFlags turn -classes traffic into multi-turn sessions from a
// client population.
type sessionFlags struct{ population, sessions string }

func (s *sessionFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&s.population, "population", "", "client population clients:rate_dist:skew[:diurnal_amp:diurnal_period_s[:burst_factor:burst_frac:burst_mean_s]] generating session traffic over -classes (enables the cluster layer)")
	fs.StringVar(&s.sessions, "sessions", "", "session structure mean_turns:think_mean_s:think_sigma[:max_context] for -population traffic (default 4:10:0.6:4096)")
}

// build parses the population and session structure; haveClasses
// reports whether -classes was given.
func (s *sessionFlags) build(haveClasses bool) (pop llmservingsim.PopulationSpec, sessions llmservingsim.SessionSpec, err error) {
	sessions = llmservingsim.DefaultSessionSpec()
	switch {
	case s.sessions != "" && s.population == "":
		err = errors.New("-sessions structures -population traffic; give -population too")
	case s.population == "":
	case !haveClasses:
		err = errors.New("-population apportions clients over -classes traffic; give -classes too")
	default:
		if pop, err = llmservingsim.ParsePopulation(s.population); err == nil && s.sessions != "" {
			sessions, err = llmservingsim.ParseSessionSpec(s.sessions)
		}
	}
	return pop, sessions, err
}

// telemetryFlags capture spans and policy decisions to files.
type telemetryFlags struct {
	traceOut, decisionsOut string
	detail                 llmservingsim.TraceDetail
}

func (t *telemetryFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&t.traceOut, "trace-out", "", "write a Chrome-trace JSON of the run (open in chrome://tracing or Perfetto)")
	fs.StringVar(&t.decisionsOut, "decisions-out", "", "write routing/admission/autoscaling decision records as TSV")
	policyVar(fs, &t.detail, "trace-detail", "telemetry capture level")
}

// build returns the recorder, nil when no telemetry file is requested.
func (t *telemetryFlags) build() *llmservingsim.Telemetry {
	if t.traceOut == "" && t.decisionsOut == "" {
		return nil
	}
	return llmservingsim.NewTelemetry(llmservingsim.TelemetryConfig{Detail: t.detail})
}

// write exports the run's captured telemetry to the requested files; a
// nil recorder is a no-op.
func (t *telemetryFlags) write(tel *llmservingsim.Telemetry, stdout io.Writer) error {
	if tel == nil {
		return nil
	}
	if t.traceOut != "" {
		what := fmt.Sprintf("chrome trace: %d events, %d decisions", tel.Events(), tel.Decisions())
		if err := writeFile(t.traceOut, tel.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%s)\n", t.traceOut, what)
	}
	if t.decisionsOut != "" {
		if err := writeFile(t.decisionsOut, tel.WriteDecisionsTSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d decisions)\n", t.decisionsOut, tel.Decisions())
	}
	return nil
}

// outputFlags name the result files, progress reporting and profiles.
type outputFlags struct {
	output, pprofAddr, cpuProfile, memProfile string
	progress                                  int
}

func (o *outputFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&o.progress, "progress", 0, "print a progress line every N iterations (0 = off)")
	fs.StringVar(&o.output, "output", "", "output file prefix for TSV results")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address while the simulation runs (e.g. localhost:6060)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the simulation to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at exit to this file")
}

// apply wires a -stream run's per-request table to stream into
// OUTPUT-requests.tsv as requests complete (a streaming run retains no
// records to dump afterwards). The returned func closes the file.
func (o *outputFlags) apply(sc *llmservingsim.ClusterScenario) (func() error, error) {
	if !sc.StreamMetrics || o.output == "" {
		return nil, nil
	}
	f, err := os.Create(o.output + "-requests.tsv")
	if err != nil {
		return nil, err
	}
	sc.RequestsOut = f
	return f.Close, nil
}

// startProfiles starts the pprof listener and CPU profile. The returned
// func shuts the listener, writes the heap profile and stops the CPU
// profile.
func (o *outputFlags) startProfiles(stderr io.Writer) (func() error, error) {
	var srv *http.Server
	if o.pprofAddr != "" {
		srv = &http.Server{Addr: o.pprofAddr} // DefaultServeMux carries net/http/pprof
		go func() {
			if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(stderr, "llmservingsim: pprof listener:", err)
			}
		}()
		fmt.Fprintf(stderr, "pprof listening on http://%s/debug/pprof/\n", o.pprofAddr)
	}
	var cpu *os.File
	if o.cpuProfile != "" {
		var err error
		if cpu, err = os.Create(o.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() (err error) {
		if srv != nil {
			srv.Close()
		}
		if o.memProfile != "" {
			runtime.GC()
			err = writeFile(o.memProfile, pprof.WriteHeapProfile)
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			closeWith(&err, cpu.Close)
		}
		return err
	}, nil
}

// runCluster executes the multi-replica path and prints the cluster
// summary with a per-class SLO table.
func runCluster(ctx context.Context, sc llmservingsim.ClusterScenario, output string, w io.Writer) error {
	start := time.Now()
	rep, err := sc.RunContext(ctx)
	if errors.Is(err, context.Canceled) {
		return errors.New("interrupted before the cluster run completed")
	} else if err != nil {
		return err
	}

	fmt.Fprintf(w, "model            %s\n", rep.Model)
	fmt.Fprintf(w, "topology         %s\n", rep.Topology)
	fmt.Fprintf(w, "router           %s\n", rep.Router)
	if rep.DecodeRouter != "" {
		fmt.Fprintf(w, "decode router    %s\n", rep.DecodeRouter)
	}
	fmt.Fprintf(w, "admission        %s\n", rep.Admission)
	if rep.Scaler != "" {
		fmt.Fprintf(w, "autoscaler       %s (peak %d replicas)\n", rep.Scaler, rep.PeakReplicas())
	}
	if rep.Requeued > 0 {
		fmt.Fprintf(w, "requeued         %d (moved off failed/draining replicas)\n", rep.Requeued)
	}
	fmt.Fprintf(w, "requests         %d (admitted %d, rejected %d)\n", rep.Requests, rep.Admitted, rep.Rejected)
	fmt.Fprintf(w, "iterations       %d across %d replicas\n", rep.TotalIterations(), rep.Replicas)
	fmt.Fprintf(w, "replica seconds  %.1f (cost proxy %.1f)\n", rep.ReplicaSeconds, rep.CostProxy)
	for _, p := range rep.Pools {
		fmt.Fprintf(w, "%-7s pool     %d slots, %d placements, %.1f replica s (cost proxy %.1f), goodput %.1f tok/s\n",
			p.Role, p.Slots, p.Requests, p.ReplicaSeconds, p.CostProxy, p.GoodputTPS)
	}
	if rep.HandoffCount > 0 {
		fmt.Fprintf(w, "kv handoffs      %d transfers, %d B over the interconnect (%.3f s link time)\n",
			rep.HandoffCount, rep.HandoffBytes, rep.HandoffLinkSeconds)
	}
	fmt.Fprintf(w, "simulated time   %.2f s\n", rep.SimEndSec)
	fmt.Fprintf(w, "prompt tput      %.1f tok/s\n", rep.PromptTPS)
	fmt.Fprintf(w, "gen tput         %.1f tok/s (goodput %.1f tok/s)\n", rep.ThroughputTPS, rep.GoodputTPS)
	if rep.PrefixTokensSaved > 0 || rep.PrefixHitRate > 0 {
		fmt.Fprintf(w, "prefix cache     %.1f %% hit rate, %d tokens saved, %d B spilled / %d B reloaded (%.3f s link time)\n",
			100*rep.PrefixHitRate, rep.PrefixTokensSaved,
			rep.PrefixSpillBytes, rep.PrefixReloadBytes, rep.PrefixLinkSeconds)
	}
	fmt.Fprintf(w, "mean latency     %.3f s (p50 %.3f, p95 %.3f, p99 %.3f, ttft %.3f, tpot %.4f)\n",
		rep.Latency.MeanSec, rep.Latency.P50Sec, rep.Latency.P95Sec, rep.Latency.P99Sec,
		rep.Latency.TTFTSec, rep.Latency.TPOTSec)
	if ss := rep.Sessions; ss != nil {
		fmt.Fprintf(w, "sessions         %d (%d completed, %d attained), %d turns (%d rejected)\n",
			ss.Sessions, ss.Completed, ss.Attained, ss.Turns, ss.TurnsRejected)
		fmt.Fprintf(w, "session ttft     turn 1 p50 %.3fs p99 %.3fs, later turns p50 %.3fs p99 %.3fs\n",
			ss.FirstTurnTTFT.P50Sec, ss.FirstTurnTTFT.P99Sec,
			ss.LaterTurnTTFT.P50Sec, ss.LaterTurnTTFT.P99Sec)
		fmt.Fprintf(w, "session goodput  %.1f tok/s (%d tokens from completed turns)\n",
			ss.GoodputTPS, ss.OutputTokens)
	}
	if rg := rep.Regret; rg != nil {
		fmt.Fprintf(w, "routing regret   %d/%d decisions regretful (%.1f %%), mean %.4f s, max %.4f s\n",
			rg.Regretful, rg.Decisions, 100*rg.RegretfulFrac(), rg.MeanRegretSec, rg.MaxRegretSec)
	}
	fmt.Fprintf(w, "wall clock       %v\n", time.Since(start).Round(time.Millisecond))
	if len(rep.Classes) > 0 {
		fmt.Fprintf(w, "\n%-12s %9s %9s %9s %12s %12s %12s %12s\n",
			"class", "requests", "rejected", "attained", "p50 ttft", "p99 ttft", "mean tpot", "goodput t/s")
		for _, cs := range rep.Classes {
			name := cs.Class
			if name == "" {
				name = "-"
			}
			fmt.Fprintf(w, "%-12s %9d %9d %9d %11.3fs %11.3fs %11.4fs %12.1f\n",
				name, cs.Requests, cs.Rejected, cs.SLOAttained,
				cs.TTFT.P50Sec, cs.TTFT.P99Sec, cs.TPOT.MeanSec, cs.GoodputTPS)
		}
	}

	if output == "" {
		return nil
	}
	files := []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{"-classes.tsv", rep.WriteClassTSV},
		{"-requests.tsv", rep.WriteRequestsTSV},
		{"-replicas.tsv", rep.WriteReplicaTSV},
		{"-fleet.tsv", rep.WriteFleetTSV},
	}
	if sc.StreamMetrics {
		// No retained records to dump post-hoc; when RequestsOut was
		// wired the table already streamed row by row during the run
		// (and the post-hoc create would truncate it).
		files = append(files[:1], files[2:]...)
	}
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = output + f.suffix
		if err := writeFile(names[i], f.write); err != nil {
			return err
		}
	}
	if sc.RequestsOut != nil {
		names = append(names, output+"-requests.tsv (streamed)")
	}
	fmt.Fprintf(w, "wrote %s\n", strings.Join(names, ", "))
	return nil
}

// progressStream decorates an arrival stream with request-count
// progress reporting against the stream's declared target — the
// streaming analogue of the per-iteration -progress hook (which needs
// a materialized report to be useful at million-request scale).
type progressStream struct {
	inner    llmservingsim.RequestStream
	every, n int
	w        io.Writer
}

func (p *progressStream) Next() (llmservingsim.Request, bool) {
	r, ok := p.inner.Next()
	if !ok {
		return r, ok
	}
	p.n++
	if p.n%p.every == 0 {
		if target := p.Target(); target > 0 {
			fmt.Fprintf(p.w, "request %d/%d  sim clock %.2fs\n", p.n, target, r.Arrival.Seconds())
		} else {
			fmt.Fprintf(p.w, "request %d  sim clock %.2fs\n", p.n, r.Arrival.Seconds())
		}
	}
	return r, ok
}

// Err and Target forward the engine's optional stream probes.
func (p *progressStream) Err() error {
	if e, ok := p.inner.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func (p *progressStream) Target() int {
	if t, ok := p.inner.(interface{ Target() int }); ok {
		return t.Target()
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
