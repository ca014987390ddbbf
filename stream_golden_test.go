package llmservingsim_test

// Determinism acceptance for the streaming engine at the public API: a
// TraceStream run must be byte-identical to the same scenario with the
// collected Trace, and a streamed per-request TSV must carry exactly
// the rows of the retained table.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

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
// of the streaming engine.
func TestStreamScenarioValidation(t *testing.T) {
	stream, err := sim.NewMultiClassStream(goldenClasses(), 8, sim.Ramp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, field string
		sc          func() sim.ClusterScenario
	}{
		{"scenario without trace or stream", "Trace", func() sim.ClusterScenario { return goldenStreamScenario(t) }},
		{"scenario with both trace and stream", "TraceStream", func() sim.ClusterScenario {
			sc := goldenStreamScenario(t)
			sc.Trace = goldenTrace(t)
			sc.TraceStream = stream
			return sc
		}},
	}
	for _, tc := range cases {
		if got := sim.RequireScenarioRejected(t, tc.name, tc.sc()); got != tc.field {
			t.Errorf("%s: rejected field %s, want %s", tc.name, got, tc.field)
		}
	}
}
