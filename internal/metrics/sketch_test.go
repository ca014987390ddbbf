package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/simtime"
)

// sketchCase generates one adversarial duration distribution.
type sketchCase struct {
	name string
	gen  func(rng *rand.Rand, n int) []simtime.Duration
}

func sketchCases() []sketchCase {
	return []sketchCase{
		{"heavy-tail", func(rng *rand.Rand, n int) []simtime.Duration {
			// Lognormal with a fat tail: most values ~ms, tail out to minutes.
			out := make([]simtime.Duration, n)
			for i := range out {
				v := math.Exp(rng.NormFloat64()*2.5 - 7) // seconds
				out[i] = simtime.Duration(v * float64(simtime.Second))
			}
			return out
		}},
		{"constant", func(_ *rand.Rand, n int) []simtime.Duration {
			out := make([]simtime.Duration, n)
			for i := range out {
				out[i] = 250 * simtime.Millisecond
			}
			return out
		}},
		{"two-spike", func(rng *rand.Rand, n int) []simtime.Duration {
			// 90% at 1ms, 10% at 10s: P95/P99 sit on the far spike, P50 on
			// the near one — the shape that breaks mean-based summaries.
			out := make([]simtime.Duration, n)
			for i := range out {
				if rng.Float64() < 0.9 {
					out[i] = simtime.Millisecond
				} else {
					out[i] = 10 * simtime.Second
				}
			}
			return out
		}},
	}
}

// exactQuantileSec is the nearest-rank quantile the sketch approximates.
func exactQuantileSec(vals []simtime.Duration, p float64) float64 {
	sorted := make([]float64, len(vals))
	for i, v := range vals {
		sorted[i] = v.Seconds()
	}
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// TestSketchQuantileError is the property test pinning the sketch's
// accuracy contract: on adversarial distributions every reported
// quantile is within SketchRelError of the exact nearest-rank value.
func TestSketchQuantileError(t *testing.T) {
	for _, tc := range sketchCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			vals := tc.gen(rng, 20000)
			var s Sketch
			var sum float64
			for _, v := range vals {
				s.Add(v)
				sum += v.Seconds()
			}
			if s.Count() != len(vals) {
				t.Fatalf("count %d, want %d", s.Count(), len(vals))
			}
			for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
				got := s.QuantileSec(p)
				want := exactQuantileSec(vals, p)
				if relErr(got, want) > SketchRelError {
					t.Errorf("p%.1f: sketch %.9g vs exact %.9g (rel err %.4f > %.4f)",
						p*100, got, want, relErr(got, want), SketchRelError)
				}
			}
			mean := sum / float64(len(vals))
			if relErr(s.MeanSec(), mean) > 1e-9 {
				t.Errorf("mean %.12g vs exact %.12g: mean must be exact", s.MeanSec(), mean)
			}
		})
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

// TestSketchZeroAndClamp covers the edge buckets: sub-nanosecond and
// negative values report zero, huge values clamp into the last bucket.
func TestSketchZeroAndClamp(t *testing.T) {
	var s Sketch
	s.Add(-simtime.Second)
	s.Add(0)
	s.Add(500) // 0.5ns
	if got := s.QuantileSec(0.99); got != 0 {
		t.Fatalf("sub-resolution values must report 0, got %g", got)
	}
	var huge Sketch
	huge.Add(simtime.Duration(math.MaxInt64))
	if got := huge.QuantileSec(0.5); math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("clamped quantile must be finite positive, got %g", got)
	}
}

// TestSketchMergeOrderFree pins the sharding contract: splitting one
// observation sequence across sketches and merging in any order yields
// a sketch identical (deep-equal, i.e. bit-identical state) to feeding
// one sketch sequentially.
func TestSketchMergeOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := sketchCases()[0].gen(rng, 5000)

	var whole Sketch
	for _, v := range vals {
		whole.Add(v)
	}

	const parts = 8
	shards := make([]Sketch, parts)
	for i, v := range vals {
		shards[i%parts].Add(v)
	}
	// Merge back-to-front to prove order independence.
	var merged Sketch
	for i := parts - 1; i >= 0; i-- {
		merged.Merge(&shards[i])
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Fatal("merged sketch differs from sequentially-built sketch")
	}
}

// TestAccumulatorMatchesSummarize pins the accumulator against the
// reference rollup over the same synthetic records: counts and token
// totals identical, distributions within the sketch contract, and
// exactly equal once ExactDistributions swaps in the retained-mode
// percentiles.
func TestAccumulatorMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	slos := map[string]SLO{
		"chat": {TTFT: simtime.Second, TPOT: 80 * simtime.Millisecond},
		"api":  {TTFT: 500 * simtime.Millisecond},
	}
	reasons := []string{"admission", "no-replica", "unservable", "failure"}
	records := make([]RequestRecord, 8000)
	for i := range records {
		class := "chat"
		if rng.Float64() < 0.4 {
			class = "api"
		}
		r := RequestRecord{
			ID: i, Class: class, Replica: rng.Intn(4),
			InputLen: 64 + rng.Intn(512), OutputLen: 1 + rng.Intn(128),
			CachedTokens: rng.Intn(64),
			Arrival:      simtime.Time(rng.Int63n(int64(100 * simtime.Second))),
		}
		if rng.Float64() < 0.1 {
			r.Rejected = true
			r.Replica = -1
			r.RejectReason = reasons[rng.Intn(len(reasons))]
		} else {
			r.FirstToken = r.Arrival.Add(simtime.Duration(rng.Int63n(int64(2 * simtime.Second))))
			r.Completed = r.FirstToken.Add(simtime.Duration(rng.Int63n(int64(10 * simtime.Second))))
		}
		records[i] = r
	}

	end := simtime.Time(110 * int64(simtime.Second))
	exact := SummarizeRequests(records, slos, end)

	acc := NewRequestAccumulator(slos)
	for i := range records {
		acc.Observe(&records[i])
	}
	got := acc.Classes(end)

	if len(got) != len(exact) {
		t.Fatalf("class count %d, want %d", len(got), len(exact))
	}
	for i := range exact {
		e, g := exact[i], got[i]
		// Everything except the sketched distributions must be identical.
		eCounts, gCounts := e, g
		eCounts.TTFT, eCounts.TPOT, eCounts.Latency = Dist{}, Dist{}, Dist{}
		gCounts.TTFT, gCounts.TPOT, gCounts.Latency = Dist{}, Dist{}, Dist{}
		if !reflect.DeepEqual(eCounts, gCounts) {
			t.Errorf("class %s: counters diverge:\nexact %+v\naccum %+v", e.Class, eCounts, gCounts)
		}
		for _, d := range []struct {
			name  string
			e, g  Dist
			exact bool
		}{
			{"ttft", e.TTFT, g.TTFT, false},
			{"tpot", e.TPOT, g.TPOT, false},
			{"latency", e.Latency, g.Latency, false},
		} {
			if relErr(d.g.MeanSec, d.e.MeanSec) > 1e-9 {
				t.Errorf("class %s %s mean: %g vs exact %g", e.Class, d.name, d.g.MeanSec, d.e.MeanSec)
			}
			for _, q := range []struct {
				p    string
				e, g float64
			}{{"p50", d.e.P50Sec, d.g.P50Sec}, {"p95", d.e.P95Sec, d.g.P95Sec}, {"p99", d.e.P99Sec, d.g.P99Sec}} {
				if relErr(q.g, q.e) > SketchRelError {
					t.Errorf("class %s %s %s: %g vs exact %g", e.Class, d.name, q.p, q.g, q.e)
				}
			}
		}
	}

	// Cluster-level latency stats mirror metrics.Latency the same way.
	var samples []LatencySample
	for _, r := range records {
		if !r.Rejected {
			samples = append(samples, LatencySample{
				Arrival: r.Arrival, FirstToken: r.FirstToken,
				Completed: r.Completed, OutputTokens: r.OutputLen,
			})
		}
	}
	exactLat := Latency(samples)
	gotLat := acc.Latency()
	if gotLat.Count != exactLat.Count {
		t.Fatalf("latency count %d, want %d", gotLat.Count, exactLat.Count)
	}
	if relErr(gotLat.MeanSec, exactLat.MeanSec) > 1e-9 ||
		relErr(gotLat.MeanTTFTSec, exactLat.MeanTTFTSec) > 1e-9 ||
		relErr(gotLat.MeanTPOTSec, exactLat.MeanTPOTSec) > 1e-9 {
		t.Errorf("latency means diverge: %+v vs %+v", gotLat, exactLat)
	}
	for _, q := range []struct {
		p    string
		e, g float64
	}{{"p50", exactLat.P50Sec, gotLat.P50Sec}, {"p95", exactLat.P95Sec, gotLat.P95Sec}, {"p99", exactLat.P99Sec, gotLat.P99Sec}} {
		if relErr(q.g, q.e) > SketchRelError {
			t.Errorf("latency %s: %g vs exact %g", q.p, q.g, q.e)
		}
	}

	// Retained mode: swapping in exact distributions over the ID-ordered
	// records reproduces the reference rollup and metrics.Latency bit
	// for bit.
	if lat := ExactDistributions(records, got); !reflect.DeepEqual(lat, exactLat) {
		t.Errorf("exact latency %+v, want %+v", lat, exactLat)
	}
	if !reflect.DeepEqual(got, exact) {
		t.Errorf("exact distributions diverge from the reference rollup:\n%+v\nvs\n%+v", got, exact)
	}
	got = acc.Classes(end)

	// Sharded aggregation: observing the records split across
	// accumulators and merging must equal sequential observation exactly.
	parts := make([]*RequestAccumulator, 4)
	for i := range parts {
		parts[i] = NewRequestAccumulator(slos)
	}
	for i := range records {
		parts[i%len(parts)].Observe(&records[i])
	}
	merged := NewRequestAccumulator(slos)
	for i := len(parts) - 1; i >= 0; i-- {
		merged.Merge(parts[i])
	}
	if !reflect.DeepEqual(merged.Classes(end), got) {
		t.Fatal("merged accumulator classes diverge from sequential accumulation")
	}
	if !reflect.DeepEqual(merged.Latency(), gotLat) {
		t.Fatal("merged accumulator latency diverges from sequential accumulation")
	}
	if merged.PromptTokens() != acc.PromptTokens() ||
		merged.AttainedPrefillTokens() != acc.AttainedPrefillTokens() ||
		merged.AttainedDecodeTokens() != acc.AttainedDecodeTokens() {
		t.Fatal("merged accumulator token totals diverge")
	}
}
