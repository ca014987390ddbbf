package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simtime"
)

// referenceMultiClassTrace is a frozen copy of the pre-streaming
// MultiClassTrace generator loop. The streaming generator must consume
// the RNG in exactly this order, or every fixed-seed golden in the repo
// silently shifts; this reference pins that contract independently of
// the production code.
func referenceMultiClassTrace(classes []Class, n int, ramp Ramp, seed int64) ([]Request, error) {
	total := 0.0
	for _, c := range classes {
		total += c.Rate
	}
	over := float64(ramp.Over) / float64(simtime.Second)
	if over == 0 {
		over = float64(n) / total
	}
	maxSeconds := float64(math.MaxInt64) / float64(simtime.Second)
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	t := 0.0
	for i := range reqs {
		rate := total * ramp.factor(t, over)
		t += rng.ExpFloat64() / rate
		if !(t < maxSeconds) {
			return nil, nil
		}
		u := rng.Float64() * total
		cls := classes[len(classes)-1]
		for _, c := range classes {
			if u < c.Rate {
				cls = c
				break
			}
			u -= c.Rate
		}
		in, out := cls.Dist.Sample(rng)
		reqs[i] = Request{
			ID: i, Class: cls.Name,
			InputLen: in + cls.PrefixLen, OutputLen: out,
			PrefixLen: cls.PrefixLen,
			Arrival:   simtime.AtSeconds(t),
		}
	}
	return reqs, nil
}

func streamTestClasses() []Class {
	return []Class{
		{Name: "chat", Dist: ShareGPT(), Rate: 3, TTFT: simtime.Second, PrefixLen: 128},
		{Name: "api", Dist: Alpaca(), Rate: 5, TPOT: 50 * simtime.Millisecond},
		{Name: "batch", Dist: Fixed(512, 128), Rate: 0.5},
	}
}

// TestMultiClassTraceMatchesReference pins the refactored
// collect-from-stream MultiClassTrace to the frozen pre-streaming
// generator, byte for byte, across seeds and ramps.
func TestMultiClassTraceMatchesReference(t *testing.T) {
	ramps := []Ramp{{}, {From: 0.5, To: 2}, {From: 0.8, To: 1.6, Over: 30 * simtime.Second}}
	for _, ramp := range ramps {
		for _, seed := range []int64{1, 42, 20240614} {
			got, err := MultiClassTrace(streamTestClasses(), 500, ramp, seed)
			if err != nil {
				t.Fatalf("ramp %+v seed %d: %v", ramp, seed, err)
			}
			want, _ := referenceMultiClassTrace(streamTestClasses(), 500, ramp, seed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ramp %+v seed %d: trace diverged from frozen reference", ramp, seed)
			}
		}
	}
}

// TestMultiClassStreamMatchesTrace pins Collect(stream) == trace and
// checks the stream metadata helpers.
func TestMultiClassStreamMatchesTrace(t *testing.T) {
	classes := streamTestClasses()
	want, err := MultiClassTrace(classes, 300, Ramp{From: 0.5, To: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewMultiClassStream(classes, 300, Ramp{From: 0.5, To: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := StreamTarget(s); !ok || n != 300 {
		t.Fatalf("StreamTarget = %d, %v; want 300, true", n, ok)
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Collect(MultiClassStream) diverged from MultiClassTrace")
	}
	if !IsSortedByArrival(got) {
		t.Fatal("stream output not in arrival order")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded another request")
	}
}

// TestPoissonStreamMatchesTrace pins the Poisson stream to its
// materialized wrapper.
func TestPoissonStreamMatchesTrace(t *testing.T) {
	want, err := PoissonTrace(ShareGPT(), 400, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewPoissonStream(ShareGPT(), 400, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Collect(PoissonStream) diverged from PoissonTrace")
	}
}

// TestMultiClassStreamOverflow pins the overflow error surfacing via
// Err/Collect: a rate so low the second arrival exceeds the simulated
// time range must fail, not wrap negative.
func TestMultiClassStreamOverflow(t *testing.T) {
	classes := []Class{{Name: "slow", Dist: Fixed(8, 8), Rate: 1e-300}}
	if _, err := MultiClassTrace(classes, 10, Ramp{}, 1); err == nil {
		t.Fatal("materialized path: want overflow error")
	}
	s, err := NewMultiClassStream(classes, 10, Ramp{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if StreamErr(s) == nil {
		t.Fatal("stream path: want overflow error from Err")
	}
}

// TestIsSortedByArrival covers the fast-path sortedness check.
func TestIsSortedByArrival(t *testing.T) {
	at := func(id int, s float64) Request { return Request{ID: id, Arrival: simtime.AtSeconds(s)} }
	if !IsSortedByArrival(nil) || !IsSortedByArrival([]Request{at(0, 1)}) {
		t.Fatal("trivial traces must count as sorted")
	}
	if !IsSortedByArrival([]Request{at(0, 1), at(1, 1), at(2, 2)}) {
		t.Fatal("ties in ID order must count as sorted")
	}
	if IsSortedByArrival([]Request{at(0, 2), at(1, 1)}) {
		t.Fatal("out-of-order arrivals must not count as sorted")
	}
	if IsSortedByArrival([]Request{at(1, 1), at(0, 1)}) {
		t.Fatal("tied arrivals with descending IDs must not count as sorted")
	}
}
