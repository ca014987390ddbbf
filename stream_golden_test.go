package llmservingsim_test

// Determinism acceptance for the streaming/sharded engine at the
// public API: a TraceStream run must be byte-identical to the same
// scenario with the collected Trace, sharded runs must be
// byte-identical to sequential (standalone and under parallel Sweep),
// and a streamed per-request TSV must carry exactly the rows of the
// retained table.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	sim "repro"
)

func goldenStreamScenario(t testing.TB) sim.ClusterScenario {
	t.Helper()
	return sim.ClusterScenario{
		Name:     "stream",
		Config:   goldenConfig(sim.SchedOrca, sim.KVPaged),
		Replicas: 2,
		Router:   sim.RouterLeastLoaded,
		Classes:  goldenClasses(),
	}
}

// TestGoldenStreamEquivalence pins the pull path: the generator fed
// directly through TraceStream reproduces the materialized-trace
// fingerprint (which TestGoldenCluster pins to a literal, so this
// transitively pins the stream path too).
func TestGoldenStreamEquivalence(t *testing.T) {
	sc := goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := clusterFingerprint(rep)

	sc = goldenStreamScenario(t)
	stream, err := sim.NewMultiClassStream(goldenClasses(), 48, sim.Ramp{From: 0.8, To: 1.6}, 20240614)
	if err != nil {
		t.Fatal(err)
	}
	sc.TraceStream = stream
	rep, err = sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := clusterFingerprint(rep); got != want {
		t.Errorf("stream run diverged from trace run\n got %s\nwant %s", got, want)
	}
}

// TestGoldenStreamMetrics pins the exact surface of the streaming
// accumulators: every fingerprint field except the sketch-backed p99
// must match the retained run bit-for-bit, and the record table must
// be gone.
func TestGoldenStreamMetrics(t *testing.T) {
	run := func(streaming bool) *sim.ClusterReport {
		sc := goldenStreamScenario(t)
		sc.Trace = goldenTrace(t)
		sc.StreamMetrics = streaming
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	exactFields := func(r *sim.ClusterReport) string {
		ev, rl := r.KVEvictions()
		return fmt.Sprintf("iters=%d admitted=%d rejected=%d end_ps=%d evict=%d reload=%d tput=%s good=%s",
			r.TotalIterations(), r.Admitted, r.Rejected, int64(r.SimEndSec*1e12+0.5),
			ev, rl, g17(r.ThroughputTPS), g17(r.GoodputTPS))
	}
	exact, got := run(false), run(true)
	if w, g := exactFields(exact), exactFields(got); g != w {
		t.Errorf("streaming metrics diverged on exact fields\n got %s\nwant %s", g, w)
	}
	// The accumulator's mean divides an exact 128-bit picosecond sum,
	// while the retained path sums float64 seconds, so the two can
	// differ in the last bits; this pins them within 1e-9 s absolute.
	if d := got.Latency.MeanSec - exact.Latency.MeanSec; d > 1e-9 || d < -1e-9 {
		t.Errorf("latency mean %v diverged from %v", got.Latency.MeanSec, exact.Latency.MeanSec)
	}
	var table bytes.Buffer
	if err := got.WriteRequestsTSV(&table); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(table.String(), "\n"); lines != 1 {
		t.Errorf("streaming report retained %d request rows, want header only", lines-1)
	}
}

// TestGoldenSharded pins shard-count invariance at the public API:
// every shard count (including one clamped past the replica count)
// reproduces the sequential fingerprint, standalone and inside a
// parallel Sweep.
func TestGoldenSharded(t *testing.T) {
	scenario := func(shards int) sim.ClusterScenario {
		sc := goldenStreamScenario(t)
		sc.Replicas = 4
		sc.Trace = goldenTrace(t)
		sc.Shards = shards
		return sc
	}
	rep, err := scenario(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := clusterFingerprint(rep)
	for _, shards := range []int{2, 3, 8} {
		rep, err := scenario(shards).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := clusterFingerprint(rep); got != want {
			t.Errorf("shards=%d diverged from sequential\n got %s\nwant %s", shards, got, want)
		}
	}

	sw := &sim.Sweep{
		ClusterScenarios: []sim.ClusterScenario{scenario(2), scenario(3)},
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
		if got := clusterFingerprint(res.Cluster); got != want {
			t.Errorf("sweep result %d diverged from sequential\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestGoldenRequestsOut checks the streamed per-request TSV: rows
// arrive in completion order, but as a set they must equal the
// retained run's table exactly.
func TestGoldenRequestsOut(t *testing.T) {
	sc := goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.WriteRequestsTSV(&want); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	sc = goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	sc.StreamMetrics = true
	sc.RequestsOut = &streamed
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	sortRows := func(s string) []string {
		rows := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
		sort.Strings(rows)
		return rows
	}
	w, g := sortRows(want.String()), sortRows(streamed.String())
	if len(w) != len(g) {
		t.Fatalf("streamed %d rows, want %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Errorf("row diverges:\n got %s\nwant %s", g[i], w[i])
		}
	}
}

// TestStreamScenarioValidation pins the public configuration contract
// of the streaming/sharded engine.
func TestStreamScenarioValidation(t *testing.T) {
	stream, err := sim.NewMultiClassStream(goldenClasses(), 8, sim.Ramp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := goldenStreamScenario(t)
	if err := sc.Validate(); err == nil {
		t.Error("scenario without trace or stream must fail")
	}
	sc = goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	sc.TraceStream = stream
	if err := sc.Validate(); err == nil {
		t.Error("scenario with both trace and stream must fail")
	}
	sc = goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	sc.Shards = -1
	if err := sc.Validate(); err == nil {
		t.Error("negative shard count must fail")
	}
	sc = goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	sc.Shards = 2
	sc.Telemetry = sim.NewTelemetry(sim.TelemetryConfig{})
	if err := sc.Validate(); err == nil {
		t.Error("sharding with telemetry must fail")
	}
	sc = goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	sc.Shards = 2
	sc.RequestsOut = &bytes.Buffer{}
	if err := sc.Validate(); err == nil {
		t.Error("sharding with a request row sink must fail")
	}
	sc = goldenStreamScenario(t)
	sc.Trace = goldenTrace(t)
	sc.Shards = 2
	sc = sc.WithAutoscaler(sim.ScaleQueueDepth, 50*time.Millisecond, 1, 4)
	sc.ScaleQueueTarget = 4
	if err := sc.Validate(); err == nil {
		t.Error("sharding with an autoscaler must fail")
	}
}
