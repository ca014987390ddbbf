package llmservingsim_test

// Golden determinism suite: fixed-seed end-to-end runs across
// {orca,static} x {vllm,maxlen} x {round-robin,least-loaded,affinity}
// whose report scalars are pinned to literal expected values. Any
// refactor of the scheduler, KV manager, cluster stepper, or engine
// stack must reproduce these values bit-for-bit — simulated behaviour
// is part of the contract, not just "roughly the same numbers".
//
// The fingerprints pin exact quantities: simulated end time in integer
// picoseconds, iteration/eviction/reload counters, and float64 scalars
// formatted with 17 significant digits (which round-trips every
// float64 exactly, so a single ULP of drift fails the test).
//
// To regenerate after an *intentional* behaviour change:
//
//	GOLDEN_PRINT=1 go test -run TestGolden -v ./... 2>&1 | grep 'golden:'
//
// and paste the emitted literals below — but first be sure the change
// is supposed to alter simulated behaviour; performance refactors are
// not.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"testing"
	"time"

	sim "repro"
)

// goldenClasses is a three-class mix whose fixed lengths always fit
// gpt2's 1024-token context, with tight enough SLOs that some requests
// miss them, so goodput != throughput in the pinned values.
func goldenClasses() []sim.TrafficClass {
	return []sim.TrafficClass{
		{Name: "chat", Dist: "fixed-320-288", RatePerSec: 48,
			TTFT: 2 * time.Second, TPOT: 250 * time.Millisecond},
		{Name: "api", Dist: "fixed-96-48", RatePerSec: 80,
			TTFT: 120 * time.Millisecond, TPOT: 2 * time.Millisecond},
		{Name: "batch", Dist: "fixed-512-128", RatePerSec: 24,
			TTFT: 4 * time.Second, TPOT: 400 * time.Millisecond},
	}
}

// goldenTrace is the shared fixed-seed arrival stream. Lengths are
// clamped by gpt2's 1024-token context via the distributions above.
func goldenTrace(t testing.TB) []sim.Request {
	t.Helper()
	reqs, err := sim.MultiClassTrace(goldenClasses(), 48, sim.Ramp{From: 0.8, To: 1.6}, 20240614)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// goldenConfig is a deliberately memory-starved 2-NPU gpt2 replica so
// the paging/eviction/reload machinery is exercised (and pinned), not
// just the happy path.
func goldenConfig(schedPolicy sim.SchedPolicy, kv sim.KVPolicy) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Model = "gpt2"
	cfg.NPUs = 2
	cfg.Parallelism = sim.ParallelismTensor
	cfg.Scheduling = schedPolicy
	cfg.KVManage = kv
	// gpt2 weights are ~236 MB; 2x161 MiB leaves a ~90 MB (~2450-token)
	// KV budget, starving the cache enough to force eviction churn.
	cfg.NPU.MemoryBytes = 161 << 20
	return cfg
}

// g17 formats a float64 with enough digits to round-trip exactly.
func g17(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

func clusterFingerprint(r *sim.ClusterReport) string {
	ev, rl := r.KVEvictions()
	return fmt.Sprintf("iters=%d admitted=%d rejected=%d end_ps=%d evict=%d reload=%d tput=%s good=%s p99=%s",
		r.TotalIterations(), r.Admitted, r.Rejected,
		int64(r.SimEndSec*1e12+0.5),
		ev, rl, g17(r.ThroughputTPS), g17(r.GoodputTPS), g17(r.Latency.P99Sec))
}

// TestGoldenCluster pins the full {sched} x {kv} x {router} cross
// product on a 2-replica cluster.
func TestGoldenCluster(t *testing.T) {
	goldens := map[string]string{
		"orca/vllm/round-robin":      "iters=1358 admitted=48 rejected=0 end_ps=457800961000 evict=4 reload=4 tput=10799.453083716877 good=10799.453083716877 p99=0.25612862800000002",
		"orca/vllm/least-loaded":     "iters=1377 admitted=48 rejected=0 end_ps=451004922000 evict=21 reload=21 tput=10962.18635059597 good=10749.328363205757 p99=0.26384819050000002",
		"orca/vllm/affinity":         "iters=934 admitted=48 rejected=0 end_ps=779961894000 evict=64 reload=64 tput=6338.7712118151248 good=4984.8589141458742 p99=0.57006770500000004",
		"orca/maxlen/round-robin":    "iters=2587 admitted=48 rejected=0 end_ps=574791006000 evict=0 reload=0 tput=8601.3871970710697 good=6597.1804715399467 p99=0.36489681699999998",
		"orca/maxlen/least-loaded":   "iters=2694 admitted=48 rejected=0 end_ps=586899986000 evict=0 reload=0 tput=8423.9225045747389 good=6788.2093968903237 p99=0.37700579699999998",
		"orca/maxlen/affinity":       "iters=2481 admitted=48 rejected=0 end_ps=1079129058000 evict=0 reload=0 tput=4581.4724043877986 good=3291.5432808223018 p99=0.82460059600000002",
		"static/vllm/round-robin":    "iters=1920 admitted=48 rejected=0 end_ps=516765967000 evict=3 reload=3 tput=9567.1934990254485 good=8731.2251350329352 p99=0.30687177799999998",
		"static/vllm/least-loaded":   "iters=1968 admitted=48 rejected=0 end_ps=492391836000 evict=5 reload=5 tput=10040.783860599995 good=9065.9504760757227 p99=0.34171705200000002",
		"static/vllm/affinity":       "iters=1263 admitted=48 rejected=0 end_ps=837220966000 evict=23 reload=23 tput=5905.2510636720017 good=4529.270233301826 p99=0.62035692600000003",
		"static/maxlen/round-robin":  "iters=3808 admitted=48 rejected=0 end_ps=704820006000 evict=0 reload=0 tput=7014.5568484331579 good=5380.0970002545582 p99=0.46103389900000002",
		"static/maxlen/least-loaded": "iters=3696 admitted=48 rejected=0 end_ps=670167241000 evict=0 reload=0 tput=7377.2630136661664 good=5729.9130203232362 p99=0.42638113399999999",
		"static/maxlen/affinity":     "iters=3360 admitted=48 rejected=0 end_ps=1252030297000 evict=0 reload=0 tput=3948.7862329261193 good=2798.6543204233658 p99=0.997501835",
	}

	trace := goldenTrace(t)
	for _, schedPolicy := range []sim.SchedPolicy{sim.SchedOrca, sim.SchedStatic} {
		for _, kv := range []sim.KVPolicy{sim.KVPaged, sim.KVMaxLen} {
			for _, router := range []sim.RouterPolicy{sim.RouterRoundRobin, sim.RouterLeastLoaded, sim.RouterAffinity} {
				key := fmt.Sprintf("%s/%s/%s", schedPolicy, kv, router)
				t.Run(key, func(t *testing.T) {
					sc := sim.ClusterScenario{
						Name:     key,
						Config:   goldenConfig(schedPolicy, kv),
						Replicas: 2,
						Router:   router,
						Classes:  goldenClasses(),
						Trace:    trace,
					}
					rep, err := sc.Run()
					if err != nil {
						t.Fatal(err)
					}
					got := clusterFingerprint(rep)
					if os.Getenv("GOLDEN_PRINT") != "" {
						t.Logf("golden: %q: %q,", key, got)
						return
					}
					want, ok := goldens[key]
					if !ok {
						t.Fatalf("no golden pinned for %s; run with GOLDEN_PRINT=1", key)
					}
					if got != want {
						t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}

// TestGoldenBackendDimension proves the perf-model backend axis is
// wired through the whole stack and pins it: an explicit
// PerfModelAstra selection must reproduce the default-path goldens
// above bit-for-bit (the adapter IS the old pipeline), and the roofline
// backend — deterministic from day one — gets its own pinned rows on
// the same trace.
func TestGoldenBackendDimension(t *testing.T) {
	goldens := map[string]string{
		"astra/round-robin":         "iters=1358 admitted=48 rejected=0 end_ps=457800961000 evict=4 reload=4 tput=10799.453083716877 good=10799.453083716877 p99=0.25612862800000002",
		"astra/least-loaded":        "iters=1377 admitted=48 rejected=0 end_ps=451004922000 evict=21 reload=21 tput=10962.18635059597 good=10749.328363205757 p99=0.26384819050000002",
		"astra/affinity":            "iters=934 admitted=48 rejected=0 end_ps=779961894000 evict=64 reload=64 tput=6338.7712118151248 good=4984.8589141458742 p99=0.57006770500000004",
		"roofline/round-robin":      "iters=1988 admitted=48 rejected=0 end_ps=284748134646 evict=0 reload=0 tput=17362.712511344103 good=17362.712511344103 p99=0.088998306824999998",
		"roofline/least-loaded":     "iters=2041 admitted=48 rejected=0 end_ps=287017145910 evict=0 reload=0 tput=17225.451755938968 good=17225.451755938968 p99=0.088983015058999998",
		"roofline/affinity":         "iters=1046 admitted=48 rejected=0 end_ps=364320593594 evict=46 reload=46 tput=13570.465372895196 good=13570.465372895196 p99=0.155218437583",
		"roofline-rtx3090/affinity": "iters=364 admitted=48 rejected=0 end_ps=1195868702557 evict=0 reload=0 tput=4134.2331222723406 good=2849.8111813721962 p99=1.083860002972",
	}

	trace := goldenTrace(t)
	run := func(t *testing.T, key string, cfg sim.Config, router sim.RouterPolicy) {
		t.Helper()
		sc := sim.ClusterScenario{
			Name:     key,
			Config:   cfg,
			Replicas: 2,
			Router:   router,
			Classes:  goldenClasses(),
			Trace:    trace,
		}
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := clusterFingerprint(rep)
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("golden: %q: %q,", key, got)
			return
		}
		want, ok := goldens[key]
		if !ok {
			t.Fatalf("no golden pinned for %s; run with GOLDEN_PRINT=1", key)
		}
		if got != want {
			t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
		}
	}

	for _, backend := range []sim.PerfModel{sim.PerfModelAstra, sim.PerfModelRoofline} {
		for _, router := range []sim.RouterPolicy{sim.RouterRoundRobin, sim.RouterLeastLoaded, sim.RouterAffinity} {
			key := fmt.Sprintf("%s/%s", backend, router)
			t.Run(key, func(t *testing.T) {
				cfg := goldenConfig(sim.SchedOrca, sim.KVPaged)
				cfg.PerfModel = backend
				run(t, key, cfg, router)
			})
		}
	}
	// One named-hardware row: the rtx3090 preset swaps in 24 GB of
	// device memory, so the paging churn of the starved default config
	// disappears — pinned so the hardware override provably reaches the
	// backend.
	t.Run("roofline-rtx3090/affinity", func(t *testing.T) {
		cfg := goldenConfig(sim.SchedOrca, sim.KVPaged)
		cfg.PerfModel = sim.PerfModelRoofline
		cfg.Hardware = "rtx3090"
		run(t, "roofline-rtx3090/affinity", cfg, sim.RouterAffinity)
	})
}

// TestGoldenFleet pins a heterogeneous fleet mixing backends AND
// hardware classes in one cluster: one starved astra-priced gpt2
// replica and one a100-class roofline-priced replica, behind
// least-loaded routing.
func TestGoldenFleet(t *testing.T) {
	const want = "iters=1170 admitted=48 rejected=0 end_ps=697276654591 evict=5 reload=5 tput=7090.442462755319 good=5989.0145073758522 p99=0.56792835869199998"

	fleet, err := sim.ParseFleet("1xgpt2,1xgpt2@a100:roofline")
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.ClusterScenario{
		Name:    "fleet",
		Config:  goldenConfig(sim.SchedOrca, sim.KVPaged),
		Router:  sim.RouterLeastLoaded,
		Classes: goldenClasses(),
		Trace:   goldenTrace(t),
	}.WithReplicaSpecs(fleet...)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want2 := rep.PerReplica[0].Backend, "astra"; got != want2 {
		t.Fatalf("replica 0 backend %q, want %q", got, want2)
	}
	if got, want2 := rep.PerReplica[1].Backend, "roofline/a100"; got != want2 {
		t.Fatalf("replica 1 backend %q, want %q", got, want2)
	}
	got := clusterFingerprint(rep)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("golden: fleet: %q,", got)
		return
	}
	if got != want {
		t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
	}
}

// goldenAutoscaleScenario is the pinned dynamic-fleet run: a
// queue-depth autoscaler (2 initial replicas scaling 2-4, 50ms tick,
// 30ms cold start — the golden trace spans well under a second) over
// the ramped golden trace, with replica 0 failing mid-ramp and its
// outstanding work requeued onto the survivor. Roofline-priced so the
// row is cheap enough for the golden-determinism CI job to run twice.
func goldenAutoscaleScenario(t testing.TB) sim.ClusterScenario {
	t.Helper()
	cfg := goldenConfig(sim.SchedOrca, sim.KVPaged)
	cfg.PerfModel = sim.PerfModelRoofline
	events, err := sim.ParseFleetEvents("fail@0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.ClusterScenario{
		Name:     "autoscale",
		Config:   cfg,
		Replicas: 2,
		Router:   sim.RouterLeastLoaded,
		Classes:  goldenClasses(),
		Trace:    goldenTrace(t),
	}.WithAutoscaler(sim.ScaleQueueDepth, 50*time.Millisecond, 2, 4)
	sc.ScaleQueueTarget = 4
	sc.ProvisionDelay = 30 * time.Millisecond
	sc.FleetEvents = events
	return sc
}

// autoscaleFingerprint extends the cluster fingerprint with the fleet
// dimension: the requeue count, replica-seconds (17 digits), and the
// full fleet-size timeline in integer picoseconds.
func autoscaleFingerprint(r *sim.ClusterReport) string {
	timeline := ""
	for _, p := range r.FleetTimeline {
		timeline += fmt.Sprintf("|%d:%d/%d/%d", int64(p.TimeSec*1e12+0.5), p.Active, p.Provisioning, p.Draining)
	}
	return fmt.Sprintf("%s requeued=%d slots=%d replica_s=%s timeline=%s",
		clusterFingerprint(r), r.Requeued, r.Replicas, g17(r.ReplicaSeconds), timeline)
}

// TestGoldenAutoscale pins the autoscaled ramp + failure run — fleet
// timeline included — bit-for-bit, both standalone and under parallel
// Sweep execution (the determinism acceptance for dynamic fleets).
func TestGoldenAutoscale(t *testing.T) {
	const want = "iters=1928 admitted=48 rejected=0 end_ps=283794155173 evict=11 reload=11 tput=17421.077601073754 good=17421.077601073754 p99=0.12872123242299999 requeued=1 slots=4 replica_s=0.62836618321299997 timeline=|0:2/0/0|100000000000:1/1/0|130000000000:2/0/0|200000000000:2/1/0|230000000000:3/0/0|250000000000:2/0/1|260777872867:2/0/0"

	rep, err := goldenAutoscaleScenario(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	got := autoscaleFingerprint(rep)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("golden: autoscale: %q,", got)
	} else if got != want {
		t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
	}

	// The same scenario inside a parallel Sweep (alongside a copy, so
	// workers genuinely interleave) must reproduce the same fingerprint.
	sw := &sim.Sweep{
		ClusterScenarios: []sim.ClusterScenario{goldenAutoscaleScenario(t), goldenAutoscaleScenario(t)},
		Workers:          2,
	}
	swRep, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := swRep.Err(); err != nil {
		t.Fatal(err)
	}
	for i, res := range swRep.Results {
		if swGot := autoscaleFingerprint(res.Cluster); swGot != got {
			t.Errorf("sweep result %d diverged from the standalone run\n got %s\nwant %s", i, swGot, got)
		}
	}
}

// goldenPrefixClasses is a shared-prefix-heavy mix: four agent classes
// with distinct 192-token preambles plus one prefix-free chat class.
// Four prefix chains do not fit comfortably in one starved replica's
// KV budget, so routers that scatter classes across replicas pay for it
// in spill churn and cold prefills — the workload the prefix-affinity
// router exists for.
func goldenPrefixClasses() []sim.TrafficClass {
	classes := []sim.TrafficClass{
		{Name: "chat", Dist: "fixed-96-48", RatePerSec: 240,
			TTFT: 20 * time.Millisecond, TPOT: 5 * time.Millisecond},
	}
	for _, name := range []string{"triage", "search", "coder", "writer"} {
		classes = append(classes, sim.TrafficClass{
			Name: name, Dist: "fixed-64-64", RatePerSec: 240,
			TTFT: 20 * time.Millisecond, TPOT: 5 * time.Millisecond,
			PrefixTokens: 768,
		})
	}
	return classes
}

// prefixFingerprint extends the cluster fingerprint with the prefix
// cache dimension plus the prefix classes' p95 TTFT (the SLO the router
// comparison is judged on).
func prefixFingerprint(r *sim.ClusterReport) string {
	return fmt.Sprintf("%s hit=%s saved=%d spill_b=%d reload_b=%d link_s=%s ttft95=%s",
		clusterFingerprint(r), g17(r.PrefixHitRate), r.PrefixTokensSaved,
		r.PrefixSpillBytes, r.PrefixReloadBytes, g17(r.PrefixLinkSeconds),
		g17(prefixClassP95TTFT(r)))
}

// prefixClassP95TTFT averages p95 TTFT over the shared-prefix classes.
func prefixClassP95TTFT(r *sim.ClusterReport) float64 {
	sum, n := 0.0, 0
	for _, cs := range r.Classes {
		if cs.Class == "chat" {
			continue
		}
		sum += cs.TTFT.P95Sec
		n++
	}
	return sum / float64(n)
}

// TestGoldenPrefix pins the tentpole payoff: on shared-prefix traffic
// over a 2-replica roofline cluster with chunked prefill and the tiered
// prefix cache, the prefix-affinity router must beat least-loaded on
// goodput AND on the prefix classes' p95 TTFT — and both runs are
// pinned bit-for-bit like every other golden row.
func TestGoldenPrefix(t *testing.T) {
	goldens := map[string]string{
		"least-loaded":    "iters=1614 admitted=96 rejected=0 end_ps=296280874066 evict=9 reload=9 tput=19603.020337742761 good=3240.1686508665721 p99=0.235180546066 hit=0.82666666666666666 saved=43968 spill_b=634060800 reload_b=302579712 link_s=0.0074763039999999996 ttft95=0.19829578228225003",
		"prefix-affinity": "iters=818 admitted=96 rejected=0 end_ps=200973204837 evict=124 reload=124 tput=28899.374942597933 good=8598.1611399464928 p99=0.13778694283699999 hit=0.94666666666666666 saved=54528 spill_b=6488064 reload_b=6488064 link_s=0.000103576 ttft95=0.090879275492999997",
	}

	classes := goldenPrefixClasses()
	trace, err := sim.MultiClassTrace(classes, 96, sim.Ramp{From: 0.8, To: 1.6}, 20240614)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, router sim.RouterPolicy) *sim.ClusterReport {
		t.Helper()
		cfg := goldenConfig(sim.SchedChunked, sim.KVPaged)
		cfg.PerfModel = sim.PerfModelRoofline
		cfg.PrefixCache = sim.PrefixCacheTiered
		cfg.KVHostMemGB = 0.02
		sc := sim.ClusterScenario{
			Name:     "prefix/" + router.String(),
			Config:   cfg,
			Replicas: 2,
			Router:   router,
			Classes:  classes,
			Trace:    trace,
		}
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := prefixFingerprint(rep)
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("golden: %q: %q,", router.String(), got)
			return rep
		}
		want, ok := goldens[router.String()]
		if !ok {
			t.Fatalf("no golden pinned for %s; run with GOLDEN_PRINT=1", router)
		}
		if got != want {
			t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
		}
		return rep
	}

	least := run(t, sim.RouterLeastLoaded)
	affinity := run(t, sim.RouterPrefixAffinity)

	if affinity.GoodputTPS <= least.GoodputTPS {
		t.Errorf("prefix-affinity goodput %.2f tps does not beat least-loaded %.2f tps",
			affinity.GoodputTPS, least.GoodputTPS)
	}
	if a, l := prefixClassP95TTFT(affinity), prefixClassP95TTFT(least); a >= l {
		t.Errorf("prefix-affinity p95 TTFT %.4fs does not beat least-loaded %.4fs", a, l)
	}
	if affinity.PrefixHitRate <= least.PrefixHitRate {
		t.Errorf("prefix-affinity hit rate %.3f does not beat least-loaded %.3f",
			affinity.PrefixHitRate, least.PrefixHitRate)
	}
}

// traceFingerprint pins a telemetry capture: total event/decision
// counts, the regret summary's exact token total and decision split,
// and FNV-1a hashes of the serialized Chrome trace and decisions TSV
// (any byte of drift in either exporter fails).
func traceFingerprint(t testing.TB, tel *sim.Telemetry, rep *sim.ClusterReport) string {
	t.Helper()
	var chrome, dec bytes.Buffer
	if err := tel.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteDecisionsTSV(&dec); err != nil {
		t.Fatal(err)
	}
	ch := fnv.New64a()
	ch.Write(chrome.Bytes())
	dh := fnv.New64a()
	dh.Write(dec.Bytes())
	rg := rep.Regret
	if rg == nil {
		t.Fatal("cluster ran with telemetry but reported no regret summary")
	}
	return fmt.Sprintf("events=%d decisions=%d regretful=%d/%d regret_toks=%d chrome_fnv=%016x dec_fnv=%016x",
		tel.Events(), tel.Decisions(), rg.Regretful, rg.Decisions,
		rg.TotalRegretTokens, ch.Sum64(), dh.Sum64())
}

// TestGoldenTrace pins the telemetry capture itself: the shared-prefix
// golden scenario run under a full-detail recorder must reproduce the
// exact event/decision stream — hashed exporter bytes included — for
// both routers, and the regret accounting must explain the goodput gap
// TestGoldenPrefix pins: the prefix-blind least-loaded router leaves
// strictly more tokens of regret on the table than prefix-affinity.
func TestGoldenTrace(t *testing.T) {
	goldens := map[string]string{
		"least-loaded":    "events=4106 decisions=192 regretful=15/96 regret_toks=16924 chrome_fnv=5b7115421228e26a dec_fnv=c9b940b51fb92ab6",
		"prefix-affinity": "events=1550 decisions=192 regretful=8/96 regret_toks=7785 chrome_fnv=00df339caf2ade7d dec_fnv=bd2c3798c0198b8e",
	}

	classes := goldenPrefixClasses()
	trace, err := sim.MultiClassTrace(classes, 96, sim.Ramp{From: 0.8, To: 1.6}, 20240614)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, router sim.RouterPolicy) *sim.RegretSummary {
		t.Helper()
		cfg := goldenConfig(sim.SchedChunked, sim.KVPaged)
		cfg.PerfModel = sim.PerfModelRoofline
		cfg.PrefixCache = sim.PrefixCacheTiered
		cfg.KVHostMemGB = 0.02
		tel := sim.NewTelemetry(sim.TelemetryConfig{Detail: sim.TraceFull})
		sc := sim.ClusterScenario{
			Name:     "trace/" + router.String(),
			Config:   cfg,
			Replicas: 2,
			Router:   router,
			Classes:  classes,
			Trace:    trace,
		}.WithTelemetry(tel)
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := traceFingerprint(t, tel, rep)
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("golden: %q: %q,", router.String(), got)
			return rep.Regret
		}
		want, ok := goldens[router.String()]
		if !ok {
			t.Fatalf("no golden pinned for %s; run with GOLDEN_PRINT=1", router)
		}
		if got != want {
			t.Errorf("telemetry capture drifted from pinned golden\n got %s\nwant %s", got, want)
		}
		return rep.Regret
	}

	least := run(t, sim.RouterLeastLoaded)
	affinity := run(t, sim.RouterPrefixAffinity)

	// The regret gap must point the same way as the goodput gap
	// TestGoldenPrefix pins: least-loaded ignores prefix placement and
	// pays for it.
	if least.TotalRegretTokens <= affinity.TotalRegretTokens {
		t.Errorf("least-loaded regret %d tokens does not exceed prefix-affinity's %d",
			least.TotalRegretTokens, affinity.TotalRegretTokens)
	}
	if least.RegretfulFrac() <= affinity.RegretfulFrac() {
		t.Errorf("least-loaded regretful fraction %.3f does not exceed prefix-affinity's %.3f",
			least.RegretfulFrac(), affinity.RegretfulFrac())
	}
}

// TestGoldenSingle pins the single-instance Scenario path (trace known
// up front, no cluster routing) across {sched} x {kv}.
func TestGoldenSingle(t *testing.T) {
	goldens := map[string]string{
		"orca/vllm":      "iters=934 finished=48 end_ps=779961894000 evict=64 reload=64 gen_tps=6338.7712118151248 p99=0.57006770500000004",
		"orca/maxlen":    "iters=2481 finished=48 end_ps=1079129058000 evict=0 reload=0 gen_tps=4581.4724043877986 p99=0.82460059600000002",
		"static/vllm":    "iters=1263 finished=48 end_ps=837220966000 evict=23 reload=23 gen_tps=5905.2510636720008 p99=0.62035692600000003",
		"static/maxlen":  "iters=3360 finished=48 end_ps=1252030297000 evict=0 reload=0 gen_tps=3948.7862329261193 p99=0.997501835",
		"chunked/vllm":   "iters=940 finished=48 end_ps=782360932750 evict=57 reload=57 gen_tps=6338.5066820362654 p99=0.57246674374999995",
		"chunked/maxlen": "iters=2490 finished=48 end_ps=1083492552750 evict=0 reload=0 gen_tps=4576.8657914755568 p99=0.82896409074999999",
	}

	trace := goldenTrace(t)
	for _, schedPolicy := range []sim.SchedPolicy{sim.SchedOrca, sim.SchedStatic, sim.SchedChunked} {
		for _, kv := range []sim.KVPolicy{sim.KVPaged, sim.KVMaxLen} {
			key := fmt.Sprintf("%s/%s", schedPolicy, kv)
			t.Run(key, func(t *testing.T) {
				s, err := sim.NewFromConfig(goldenConfig(schedPolicy, kv), trace)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("iters=%d finished=%d end_ps=%d evict=%d reload=%d gen_tps=%s p99=%s",
					rep.Iterations, rep.Latency.Count, int64(rep.SimEndSec*1e12+0.5),
					rep.KV.Evictions, rep.KV.Reloads, g17(rep.GenTPS), g17(rep.Latency.P99Sec))
				if os.Getenv("GOLDEN_PRINT") != "" {
					t.Logf("golden: %q: %q,", key, got)
					return
				}
				want, ok := goldens[key]
				if !ok {
					t.Fatalf("no golden pinned for %s; run with GOLDEN_PRINT=1", key)
				}
				if got != want {
					t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// TestGoldenSubBatch pins the NeuPIMs-style sub-batch interleaving path:
// single-instance NPU+PIM runs across {local, pool} PIM placement x
// {2, 4} sub-batches. Each iteration's block latency is the operator
// scheduler's merged-trace makespan, so any change to that scheduler's
// dispatch rule shows up here.
func TestGoldenSubBatch(t *testing.T) {
	goldens := map[string]string{
		"local/sub=2": "iters=933 finished=48 end_ps=461433648000 gen_tps=10714.433204923105 p99=0.25153945900000002",
		"local/sub=4": "iters=871 finished=48 end_ps=747141726000 gen_tps=6617.2184311922638 p99=0.53724753700000005",
		"pool/sub=2":  "iters=917 finished=48 end_ps=511330519000 gen_tps=9668.8928516703691 p99=0.30143632999999997",
		"pool/sub=4":  "iters=900 finished=48 end_ps=792449898000 gen_tps=6238.8802276052538 p99=0.58485455274999998",
	}

	trace := goldenTrace(t)
	for _, pim := range []sim.PIMMode{sim.PIMLocal, sim.PIMPool} {
		for _, sub := range []int{2, 4} {
			key := fmt.Sprintf("%s/sub=%d", pim, sub)
			t.Run(key, func(t *testing.T) {
				cfg := goldenConfig(sim.SchedOrca, sim.KVPaged)
				cfg.PIMType = pim
				cfg.SubBatches = sub
				s, err := sim.NewFromConfig(cfg, trace)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("iters=%d finished=%d end_ps=%d gen_tps=%s p99=%s",
					rep.Iterations, rep.Latency.Count, int64(rep.SimEndSec*1e12+0.5),
					g17(rep.GenTPS), g17(rep.Latency.P99Sec))
				if os.Getenv("GOLDEN_PRINT") != "" {
					t.Logf("golden: %q: %q,", key, got)
					return
				}
				want, ok := goldens[key]
				if !ok {
					t.Fatalf("no golden pinned for %s; run with GOLDEN_PRINT=1", key)
				}
				if got != want {
					t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// TestGoldenAstraPlacement pins single-instance astra runs off the
// 1-stage TP2 shape the other goldens use: pipeline and hybrid
// pipeline x tensor parallelism, selective batching (request-split
// attention), a PIM pool without sub-batches (per-request round-robin
// over pool devices) and a single NPU. These are the graph shapes block
// folding and the executor's time shift have to reproduce exactly.
func TestGoldenAstraPlacement(t *testing.T) {
	goldens := map[string]string{
		"pipeline/pp4":   "iters=1425 finished=48 end_ps=1529356650002 evict=61 reload=61 gen_tps=3232.7318810779257 p99=1.312492610002",
		"hybrid/tp2xpp2": "iters=1453 finished=48 end_ps=880695510000 evict=85 reload=85 gen_tps=5613.7449820767224 p99=0.64836910699999994",
		"selective/tp2":  "iters=885 finished=48 end_ps=838790960000 evict=61 reload=61 gen_tps=5894.1980013709253 p99=0.63412599199999997",
		"pim-pool/tp2":   "iters=955 finished=48 end_ps=386141926000 evict=46 reload=46 gen_tps=12803.582483814513 p99=0.18922289875000001",
		"single/tp1":     "iters=810 finished=48 end_ps=1333665655000 evict=51 reload=51 gen_tps=3707.076043733015 p99=1.123771466",
	}

	cases := []struct {
		name string
		edit func(*sim.Config)
	}{
		{"pipeline/pp4", func(c *sim.Config) {
			c.NPUs = 4
			c.Parallelism = sim.ParallelismPipeline
			c.NPU.MemoryBytes = 72 << 20
		}},
		{"hybrid/tp2xpp2", func(c *sim.Config) {
			c.NPUs = 4
			c.NPUGroups = 2
			c.Parallelism = sim.ParallelismHybrid
			c.NPU.MemoryBytes = 72 << 20
		}},
		{"selective/tp2", func(c *sim.Config) { c.SelectiveBatching = true }},
		{"pim-pool/tp2", func(c *sim.Config) {
			c.PIMType = sim.PIMPool
			c.PIMPoolSize = 3
		}},
		{"single/tp1", func(c *sim.Config) {
			c.NPUs = 1
			c.NPU.MemoryBytes = 330 << 20
		}},
	}
	trace := goldenTrace(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig(sim.SchedOrca, sim.KVPaged)
			tc.edit(&cfg)
			s, err := sim.NewFromConfig(cfg, trace)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("iters=%d finished=%d end_ps=%d evict=%d reload=%d gen_tps=%s p99=%s",
				rep.Iterations, rep.Latency.Count, int64(rep.SimEndSec*1e12+0.5),
				rep.KV.Evictions, rep.KV.Reloads, g17(rep.GenTPS), g17(rep.Latency.P99Sec))
			if os.Getenv("GOLDEN_PRINT") != "" {
				t.Logf("golden: %q: %q,", tc.name, got)
				return
			}
			want, ok := goldens[tc.name]
			if !ok {
				t.Fatalf("no golden pinned for %s; run with GOLDEN_PRINT=1", tc.name)
			}
			if got != want {
				t.Errorf("behaviour drifted from pinned golden\n got %s\nwant %s", got, want)
			}
		})
	}
}
