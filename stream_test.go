package llmservingsim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// sliceStream is a caller-written RequestStream over a fixed trace.
type sliceStream struct {
	reqs []Request
	next int
}

func (s *sliceStream) Next() (Request, bool) {
	if s.next == len(s.reqs) {
		return Request{}, false
	}
	s.next++
	return s.reqs[s.next-1], true
}

// TestRecordingStreamNamesRequest: the recorder numbers requests in pull
// order, so the replay writer's ordering error names the request at
// fault.
func TestRecordingStreamNamesRequest(t *testing.T) {
	var reqs []Request
	for _, sec := range []time.Duration{2, 3, 1} {
		reqs = append(reqs, Request{InputLen: 8, OutputLen: 4, Arrival: sec * time.Second})
	}
	var buf bytes.Buffer
	rec := NewRecordingStream(&sliceStream{reqs: reqs}, &buf, "test")
	for n := 0; ; n++ {
		if _, ok := rec.Next(); !ok {
			if n != len(reqs) {
				t.Fatalf("recorder passed on %d of %d requests", n, len(reqs))
			}
			break
		}
	}
	err := rec.Close()
	if err == nil || !strings.Contains(err.Error(), "request 2 arrives at 1s before previous arrival 3s") {
		t.Fatalf("Close = %v, want the out-of-order error naming request 2", err)
	}
}

// TestArrivalNanosecondBoundary pins where public streams lose
// resolution: a replay file keeps picoseconds, Request.Arrival is a
// time.Duration, so a built-in stream truncates arrivals to whole
// nanoseconds. A round trip internal → public → internal returns the
// original request with ID 0 and its arrival truncated, and does not
// allocate.
func TestArrivalNanosecondBoundary(t *testing.T) {
	var buf bytes.Buffer
	row := workload.Request{InputLen: 8, OutputLen: 4, Arrival: simtime.Time(1500)}
	if err := workload.WriteReplayTrace(&buf, []workload.Request{row}, "test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\t1500\t") {
		t.Fatalf("replay row does not hold arrival_ps 1500:\n%s", buf.String())
	}
	rs, err := NewReplayStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := rs.Next(); !ok || r.Arrival != time.Nanosecond {
		t.Fatalf("replayed arrival = %v (ok %v), want 1ns", r.Arrival, ok)
	}

	rng := rand.New(rand.NewSource(7))
	strs := []string{"", "chat", "s17"}
	for range 1000 {
		r := workload.Request{
			ID:           rng.Intn(1 << 20),
			InputLen:     rng.Intn(1 << 16),
			OutputLen:    rng.Intn(1 << 16),
			Arrival:      simtime.Time(rng.Int63()),
			Class:        strs[rng.Intn(len(strs))],
			PrefixLen:    rng.Intn(1 << 10),
			PrefixKey:    strs[rng.Intn(len(strs))],
			Session:      rng.Intn(100),
			Turn:         rng.Intn(8),
			SessionTurns: rng.Intn(8),
		}
		want := r
		want.ID = 0
		want.Arrival = r.Arrival / simtime.Time(simtime.Nanosecond) * simtime.Time(simtime.Nanosecond)
		if got := publicRequest(r).internal(0); got != want {
			t.Fatalf("round trip of %+v = %+v, want %+v", r, got, want)
		}
	}

	adapter := &streamAdapter{wrapped{&sliceStream{reqs: []Request{{InputLen: 8, OutputLen: 4, Class: "chat"}}}}}
	if allocs := testing.AllocsPerRun(100, func() {
		adapter.s.(*sliceStream).next = 0
		adapter.Next()
	}); allocs != 0 {
		t.Errorf("streamAdapter.Next allocates %.1f times a request, want 0", allocs)
	}
}
