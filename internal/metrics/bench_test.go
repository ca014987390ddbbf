package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// BenchmarkRequestAccumulatorObserve measures the metrics fold: one
// terminal record folded into a warmed accumulator per op, cycling
// through 1024 records of three classes (two with SLOs) that mix
// completions, single-token outputs and rejections, as a cluster run
// observes them. Session records are left out: opening a session
// allocates its state, which a run pays once per session.
func BenchmarkRequestAccumulatorObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	classes := []string{"chat", "api", "batch"}
	reasons := []string{"admission", "no-replica", "unservable", "failure"}
	recs := make([]RequestRecord, 1024)
	for i := range recs {
		arrival := simtime.Time(rng.Int63n(int64(600 * simtime.Second)))
		first := arrival.Add(simtime.Duration(rng.Int63n(int64(2 * simtime.Second))))
		r := RequestRecord{
			ID:         i,
			Class:      classes[rng.Intn(len(classes))],
			InputLen:   1 + rng.Intn(2048),
			OutputLen:  1 + rng.Intn(512),
			Arrival:    arrival,
			FirstToken: first,
			Completed:  first.Add(simtime.Duration(rng.Int63n(int64(30 * simtime.Second)))),
		}
		if i%16 == 0 {
			r.Rejected, r.RejectReason = true, reasons[rng.Intn(len(reasons))]
		}
		recs[i] = r
	}
	a := NewRequestAccumulator(map[string]SLO{
		"chat": {TTFT: simtime.Second, TPOT: 50 * simtime.Millisecond},
		"api":  {TTFT: 500 * simtime.Millisecond},
	})
	for i := range recs {
		a.Observe(&recs[i])
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		a.Observe(&recs[i%len(recs)])
		i++
	}
}
