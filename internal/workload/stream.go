package workload

// Streaming trace generation: the pull-based counterpart of the
// materialized trace builders. A Stream yields requests one at a time in
// arrival order, so a million-request run never holds the trace in
// memory; the materialized builders (PoissonTrace, MultiClassTrace) are
// thin collect-from-stream wrappers over the same generators, which
// keeps the two paths byte-identical for a given seed.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/simtime"
)

// Stream is a pull-based request source. Next returns the next request
// in non-decreasing arrival order; ok is false once the stream is
// exhausted (or failed — see StreamErr).
type Stream interface {
	Next() (r Request, ok bool)
}

// StreamTarget returns the total number of requests the stream intends
// to emit, when it knows (generator streams do; ok is false otherwise).
// Consumers use it for progress reporting and preallocation hints.
func StreamTarget(s Stream) (int, bool) {
	if t, ok := s.(interface{ Target() int }); ok {
		return t.Target(), true
	}
	return 0, false
}

// StreamErr returns the error that terminated a stream early, if the
// stream tracks one (the bufio.Scanner convention: Next reports false,
// then Err explains why). Streams without an Err method never fail.
func StreamErr(s Stream) error {
	if e, ok := s.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Collect drains a stream into a slice, failing if the stream
// terminated on an error.
func Collect(s Stream) ([]Request, error) {
	var out []Request
	if n, ok := StreamTarget(s); ok {
		out = make([]Request, 0, n)
	}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := StreamErr(s); err != nil {
		return nil, err
	}
	return out, nil
}

// SliceStream yields an already-materialized trace in slice order.
func SliceStream(reqs []Request) Stream { return &sliceStream{reqs: reqs} }

type sliceStream struct {
	reqs []Request
	i    int
}

func (s *sliceStream) Target() int { return len(s.reqs) }

func (s *sliceStream) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// PoissonStream generates the PoissonTrace request sequence one request
// at a time: lengths from dist, exponential inter-arrival gaps at the
// given mean rate. Identical seed, identical sequence.
type PoissonStream struct {
	dist LengthDist
	n    int
	rate float64
	rng  *rand.Rand
	i    int
	t    float64
}

// NewPoissonStream validates the parameters and returns the generator.
func NewPoissonStream(dist LengthDist, n int, ratePerSec float64, seed int64) (*PoissonStream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: trace size must be positive, got %d", n)
	}
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %g", ratePerSec)
	}
	return &PoissonStream{dist: dist, n: n, rate: ratePerSec, rng: rand.New(rand.NewSource(seed))}, nil
}

// Target returns the stream's total request count.
func (s *PoissonStream) Target() int { return s.n }

// Next yields the next request, false once n requests have been drawn.
func (s *PoissonStream) Next() (Request, bool) {
	if s.i >= s.n {
		return Request{}, false
	}
	s.t += s.rng.ExpFloat64() / s.rate
	in, out := s.dist.Sample(s.rng)
	r := Request{ID: s.i, InputLen: in, OutputLen: out, Arrival: simtime.AtSeconds(s.t)}
	s.i++
	return r, true
}

// MultiClassStream generates the MultiClassTrace request sequence one
// request at a time: a merged Poisson process at the sum of the class
// rates (ramp-scaled), each arrival assigned to a class by rate
// thinning. The merged process is already in arrival order, so no sort
// is needed at any scale. Identical (classes, n, ramp, seed), identical
// sequence.
type MultiClassStream struct {
	classes []Class
	total   float64
	ramp    Ramp
	over    float64
	n       int
	rng     *rand.Rand
	i       int
	t       float64
	err     error
}

// NewMultiClassStream validates the mix and returns the generator.
func NewMultiClassStream(classes []Class, n int, ramp Ramp, seed int64) (*MultiClassStream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: trace size must be positive, got %d", n)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: no traffic classes")
	}
	seen := map[string]bool{}
	total := 0.0
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("workload: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		total += c.Rate
	}
	if err := ramp.Validate(); err != nil {
		return nil, err
	}
	over := float64(ramp.Over) / float64(simtime.Second)
	if over == 0 {
		over = float64(n) / total // expected unramped span
	}
	return &MultiClassStream{
		classes: append([]Class(nil), classes...),
		total:   total, ramp: ramp, over: over, n: n,
		rng: rand.New(rand.NewSource(seed)),
	}, nil
}

// Target returns the stream's total request count.
func (s *MultiClassStream) Target() int { return s.n }

// Err reports the error that stopped the stream early (arrival-time
// overflow), nil otherwise.
func (s *MultiClassStream) Err() error { return s.err }

// Next yields the next request, false once n requests have been drawn
// or the generator failed (see Err).
func (s *MultiClassStream) Next() (Request, bool) {
	if s.i >= s.n || s.err != nil {
		return Request{}, false
	}
	rate := s.total * s.ramp.factor(s.t, s.over)
	s.t += s.rng.ExpFloat64() / rate
	// Arrival times live in int64 picoseconds; vanishingly small rates
	// would overflow that range (or reach +Inf) and wrap into negative
	// arrivals, so the generator fails fast instead.
	if !(s.t < maxTraceSeconds) {
		s.err = fmt.Errorf("workload: arrival time overflow at request %d (total rate %g too low for the simulated-time range)", s.i, s.total)
		return Request{}, false
	}

	// Pick the class in declaration order by cumulative rate.
	u := s.rng.Float64() * s.total
	cls := s.classes[len(s.classes)-1]
	for _, c := range s.classes {
		if u < c.Rate {
			cls = c
			break
		}
		u -= c.Rate
	}
	in, out := cls.Dist.Sample(s.rng)
	r := Request{
		ID: s.i, Class: cls.Name,
		InputLen: in + cls.PrefixLen, OutputLen: out,
		PrefixLen: cls.PrefixLen,
		Arrival:   simtime.AtSeconds(s.t),
	}
	s.i++
	return r, true
}

// maxTraceSeconds bounds synthesized arrival times to the int64
// picosecond range.
var maxTraceSeconds = float64(math.MaxInt64) / float64(simtime.Second)

// IsSortedByArrival reports whether the trace is already in arrival
// order (ties in ID order) — the O(n) check that lets bulk consumers
// skip the O(n log n) sort on the common already-ordered path.
func IsSortedByArrival(reqs []Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			return false
		}
		if reqs[i].Arrival == reqs[i-1].Arrival && reqs[i].ID < reqs[i-1].ID {
			return false
		}
	}
	return true
}
