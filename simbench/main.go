// Command simbench is the simulator's benchmark: it measures how fast,
// and at what memory cost, the host simulates four serving workloads,
// and checks that every run still computes the same simulated results.
//
//	bash simbench/run.sh --workload fleet256 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured on the
// public repro API with nothing wrapped. With --trace 1 it alternates
// that untraced run with a traced one, assembled from the internal
// packages with a timing wrapper around every layer interface, and
// prints the per-layer metrics. The last line of standard output is one
// JSON object; a failed correctness check makes it report correct=false
// and exit 1. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet256, paper-npu-pim, sessions-tiered or disagg-traced")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the default seed's fingerprint is pinned")
	seconds := fs.Int("seconds", 10, "how long the timed runs last, in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	inject := fs.String("inject", "", "fault injection for the sensitivity self-check, layer:duration (router, backend, stream or control), e.g. router:2us; never set in scored runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	layer, delay, err := parseInject(*inject)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || (layer != "" && *trace == 1) {
		fmt.Fprintln(stderr, "simbench: want --trace 0|1, --seconds >= 1, and --inject only with --trace 0")
		return 2
	}

	// One goroutine drives each simulation; the runtime may use a second
	// core for GC work, which cpu_ms_per_kreq counts.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// Set-up files (the replay trace) live in the checkout's build
	// directory and go when the run ends.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := &bench{w: w, seed: *seed, scratch: scratch, inject: layer, delay: delay, stderr: stderr}
	res, props, err := b.measure(time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
	}
	if props != nil {
		line, _ := json.Marshal(props)
		fmt.Fprintf(stdout, "properties %s\n", line)
	}
	if res == nil {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type bench struct {
	w       spec
	seed    int64
	scratch string
	inject  string
	delay   time.Duration
	stderr  io.Writer
}

// repStats is one timed run, measured from outside the program.
type repStats struct {
	arrivals int
	wall     time.Duration
	cpu      time.Duration // process CPU, every thread
	bytes    uint64
	allocs   uint64
	gcCycles uint32
	gcCPU    float64 // runtime estimate of GC CPU seconds
	rssMB    float64 // peak resident set during the run
}

var errCheck = errors.New("correctness check failed")

// measure runs the workload until the time budget is spent, at least
// once, and reduces the runs to the reported metrics.
func (b *bench) measure(budget time.Duration, traced bool) (*result, map[string]any, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var plain, tracedReps, offReps []repStats
	p := newProbes(traced, b.inject, b.delay)
	var fp string
	// once sets up a fresh instance, times one run of it, checks the
	// report's conservation and pins the run to the first run's
	// fingerprint (and the first run's to the pinned value).
	once := func(path string, run func(instance) (*summary, error)) (repStats, *summary, error) {
		inst, err := b.w.setup(b.seed, b.scratch)
		if err != nil {
			return repStats{}, nil, fmt.Errorf("set-up: %w", err)
		}
		defer inst.close()
		st, s, err := timed(func() (*summary, error) { return run(inst) })
		if err != nil {
			return st, nil, fmt.Errorf("%s run: %w", path, err)
		}
		if err := s.check(); err != nil {
			return st, nil, fmt.Errorf("%w: %s run: %v", errCheck, path, err)
		}
		got := s.fingerprint()
		if fp == "" {
			fp = got
			if err := checkPinned(b.w.name, b.seed, fp); err != nil {
				return st, nil, fmt.Errorf("%w: %v", errCheck, err)
			}
		} else if got != fp {
			return st, nil, fmt.Errorf("%w: %s run fingerprint %s differs from %s", errCheck, path, got, fp)
		}
		return st, s, nil
	}
	scored := func(i instance) (*summary, error) { return i.runPublic(true) }
	if b.inject != "" {
		scored = func(i instance) (*summary, error) { return i.runInternal(p) }
	}
	// A failed run counts all of its arrivals as failed.
	failed := func(err error) (*result, map[string]any, error) {
		res.Correct = false
		res.Attempted += b.w.arrivals
		res.Failed += b.w.arrivals
		return res, nil, err
	}
	var last *summary
	deadline := time.Now().Add(budget)
	for len(plain) == 0 || time.Now().Before(deadline) {
		st, s, err := once("scored", scored)
		if err != nil {
			return failed(err)
		}
		plain = append(plain, st)
		res.Attempted += st.arrivals
		fmt.Fprintf(b.stderr, "run %d: %d arrivals, wall %.4fs, cpu %.4fs, peak rss %.1f MB\n", len(plain), st.arrivals, st.wall.Seconds(), st.cpu.Seconds(), st.rssMB)
		last = s
		if !traced {
			continue
		}
		if st, _, err = once("traced", func(i instance) (*summary, error) { return i.runInternal(p) }); err != nil {
			return failed(err)
		}
		tracedReps = append(tracedReps, st)
		res.Attempted += st.arrivals
		if b.w.telemetry {
			if st, _, err = once("telemetry-off", func(i instance) (*summary, error) { return i.runPublic(false) }); err != nil {
				return failed(err)
			}
			offReps = append(offReps, st)
			res.Attempted += st.arrivals
		}
	}
	if traced {
		b.perLayer(res, p, plain, tracedReps, offReps)
	} else {
		runtime.GC()
		setupS, err := b.setupSeconds()
		if err != nil {
			return nil, nil, err
		}
		b.endToEnd(res, plain, setupS)
	}
	return res, b.properties(last, p, plain, traced, fp), nil
}

// setupSeconds times building the arrival source and the scenario: nine
// batches, each repeating the set-up for at least 50 ms, and the median
// of the batches' per-set-up times.
func (b *bench) setupSeconds() (float64, error) {
	var per []float64
	for range 9 {
		var total time.Duration
		n := 0
		for total < 50*time.Millisecond {
			t := time.Now()
			inst, err := b.w.setup(b.seed, b.scratch)
			total += time.Since(t)
			if err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			inst.close()
			n++
		}
		per = append(per, total.Seconds()/float64(n))
	}
	return median(per), nil
}

// timed runs fn once between a forced GC and the measurements, so every
// run starts from the same heap and pays for its own garbage only. Freed
// memory goes back to the OS and the peak-RSS mark is reset first, so
// the run's peak is its own, not set-up's or an earlier run's.
func timed(fn func() (*summary, error)) (repStats, *summary, error) {
	debug.FreeOSMemory()
	rssReset := resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	c0 := processCPU()
	t0 := time.Now()
	s, err := fn()
	wall := time.Since(t0)
	c1 := processCPU()
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return repStats{}, nil, err
	}
	return repStats{
		arrivals: s.requests,
		wall:     wall,
		cpu:      c1 - c0,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		allocs:   m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
		gcCPU:    gc1 - gc0,
		rssMB:    peakRSSMB(rssReset),
	}, s, nil
}

// resetPeakRSS resets the kernel's peak-RSS mark of this process to its
// current resident set (Linux clear_refs 5) and reports whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the peak resident set since the last reset (VmHWM), or,
// where the mark cannot be reset, since the process started (ru_maxrss).
func peakRSSMB(reset bool) float64 {
	if reset {
		if b, err := os.ReadFile("/proc/self/status"); err == nil {
			for line := range strings.Lines(string(b)) {
				if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					var kib float64
					if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kib); err == nil {
						return kib / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// interquartileMean averages the middle half of v (the whole of v below
// four values): robust to the odd run a busy host slows, like the
// median, but it uses more of the runs, so it wanders less.
func interquartileMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func perRep(reps []repStats, f func(r repStats) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return interquartileMean(v)
}

// endToEnd reduces the scored runs to the six end-to-end metrics: each
// run-level metric is the interquartile mean over the runs.
func (b *bench) endToEnd(res *result, reps []repStats, setupS float64) {
	m := res.Metrics
	if len(reps) > 0 {
		m["req_per_s"] = metric{perRep(reps, func(r repStats) float64 { return float64(r.arrivals) / r.wall.Seconds() }), "1/s"}
		m["cpu_ms_per_kreq"] = metric{perRep(reps, func(r repStats) float64 {
			return float64(r.cpu) / 1e6 / (float64(r.arrivals) / 1000)
		}), "ms"}
		m["bytes_per_req"] = metric{perRep(reps, func(r repStats) float64 { return float64(r.bytes) / float64(r.arrivals) }), "B"}
		m["allocs_per_req"] = metric{perRep(reps, func(r repStats) float64 { return float64(r.allocs) / float64(r.arrivals) }), "count"}
		m["peak_rss_mb"] = metric{perRep(reps, func(r repStats) float64 { return r.rssMB }), "MB"}
	}
	m["setup_s"] = metric{setupS, "s"}
}

// perLayer reduces the traced runs to the per-layer metrics: totals
// over every traced run, divided by the run count where a per-run value
// is meant.
func (b *bench) perLayer(res *result, p *probes, plain, traced, off []repStats) {
	m := res.Metrics
	runs := float64(max(p.runs, 1))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / runs }
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("workload.next_ns", "ns", p.pulls.perCall())
	set("cluster.admission.admit_ns", "ns", p.admit.perCall())
	set("cluster.admission.reject_frac", "ratio", frac(p.rejects, p.admit.calls))
	set("cluster.router.route_ns", "ns", p.route.perCall())
	set("cluster.router.prefix_route_frac", "ratio", frac(p.prefixRoutes, p.route.calls))
	set("cluster.control.tick_ns", "ns", p.tick.perCall())
	set("cluster.control.ticks", "count", float64(p.tick.calls)/runs)
	children := time.Duration(p.pulls.ns+p.admit.ns+p.route.ns+p.tick.ns) + p.replicaHost
	set("cluster.self_ms", "ms", ms(p.wall-children))

	// Core attributes a step's wall time minus what the backend metered
	// for itself to the scheduler; a backend that meters nothing
	// (roofline) would land in the scheduler bucket, so the probe-timed
	// backend time it did not meter is taken back out.
	unmetered := max(time.Duration(p.iters.ns)-p.backendHost, 0)
	set("sched.self_ms", "ms", ms(p.schedHost-unmetered))
	var iterations, handoffs, requeued float64
	kv := map[string]float64{}
	if s := p.last; s != nil {
		iterations = float64(s.iterations)
		handoffs = float64(s.handoffs)
		requeued = float64(s.requeued)
		kv["prefix"] = s.prefixHitRate
		kv["spill"] = float64(s.spillBytes) / (1 << 20)
		kv["reload"] = float64(s.reloadBytes) / (1 << 20)
		kv["evict"] = float64(s.evictions)
	}
	set("cluster.handoffs", "count", handoffs)
	set("cluster.requeued", "count", requeued)
	set("sched.iterations", "count", iterations)
	set("sched.batch_mean", "count", frac(p.batchSeqs, p.iters.calls))
	set("core.host_ns_per_iter", "ns", frac(int64(p.replicaHost), p.iters.calls))
	set("kvcache.prefix_hit_ratio", "ratio", kv["prefix"])
	set("kvcache.spill_mb", "MB", kv["spill"])
	set("kvcache.reload_mb", "MB", kv["reload"])
	set("kvcache.evictions", "count", kv["evict"])
	set("perfmodel.iter_ns", "ns", p.iters.perCall())
	set("engine.ms", "ms", ms(p.engineHost))
	set("graph.ms", "ms", ms(p.graphHost))
	set("astra.ms", "ms", ms(p.astraHost))
	set("engine.reuse_hit_ratio", "ratio", frac(p.reuseHits, p.reuseCalls))
	set("metrics.observe_ns", "ns", p.observe.perCall())

	var events, decisions, export, bytesDelta, wallDelta float64
	if p.telemetryRuns > 0 {
		t := float64(p.telemetryRuns)
		events = float64(p.obsEvents) / t
		decisions = float64(p.obsDecisions) / t
		export = float64(p.obsExport) / 1e6 / t
	}
	if len(off) > 0 {
		perReq := func(r repStats) float64 { return float64(r.bytes) / float64(r.arrivals) }
		wall := func(r repStats) float64 { return r.wall.Seconds() }
		bytesDelta = perRep(plain, perReq) - perRep(off, perReq)
		wallDelta = perRep(plain, wall)/perRep(off, wall) - 1
	}
	set("obs.events", "count", events)
	set("obs.decisions", "count", decisions)
	set("obs.export_ms", "ms", export)
	set("obs.bytes_per_req_delta", "B", bytesDelta)
	set("obs.wall_frac_delta", "ratio", wallDelta)

	var gcCycles, gcCPU, cpu float64
	for _, r := range plain {
		gcCycles += float64(r.gcCycles)
		gcCPU += r.gcCPU
		cpu += r.cpu.Seconds()
	}
	set("runtime.gc_cycles", "count", gcCycles/float64(len(plain)))
	set("runtime.gc_cpu_frac", "ratio", gcCPU/cpu)
	set("runtime.heap_peak_mb", "MB", float64(p.heapPeak)/(1<<20))
	wall := func(r repStats) float64 { return r.wall.Seconds() }
	set("trace.overhead_frac", "ratio", perRep(traced, wall)/perRep(plain, wall)-1)
}

// properties are the workload facts later claims must cite, printed on
// the line before the result.
func (b *bench) properties(s *summary, p *probes, plain []repStats, traced bool, fp string) map[string]any {
	props := map[string]any{
		"workload":    b.w.name,
		"seed":        b.seed,
		"replicas":    b.w.replicas,
		"arrivals":    b.w.arrivals,
		"runs":        len(plain),
		"fingerprint": fp,
		"pinned":      b.seed == defaultSeed,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
	}
	if b.inject != "" {
		props["inject"] = fmt.Sprintf("%s:%s", b.inject, b.delay)
	}
	if s != nil {
		props["telemetry"] = s.telemetry
		if s.promptTokens > 0 {
			props["prefix_cached_prompt_share"] = float64(s.prefixSaved) / s.promptTokens
		}
	}
	// The backend's share of host time needs the backend timed: the
	// traced run's probe, or the single instance's own Fig. 9 buckets.
	switch {
	case traced && p.wall > 0:
		props["backend_host_share"] = float64(p.iters.ns) / float64(p.wall)
	case s != nil && !s.cluster && s.replicaHost > 0:
		props["backend_host_share"] = s.backendHost.Seconds() / s.replicaHost.Seconds()
	default:
		props["backend_host_share"] = nil // measured by --trace 1
	}
	return props
}
