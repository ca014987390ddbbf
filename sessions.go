package llmservingsim

// Public surface of the ServeGen-style session workload layer and the
// versioned trace-replay format: client populations with heavy-tailed
// rates, multi-turn sessions with context growth, a recorder that tees
// any arrival stream into a replay trace, and a replay stream that
// feeds a recorded trace back through the engine bit-identically.

import (
	"fmt"
	"io"
	"os"

	"repro/internal/workload"
)

// PopulationSpec describes a client population: how many clients, how
// their per-client rates are distributed (heavy-tailed), and optional
// diurnal and burst rate modulation. Clients are apportioned to the
// scenario's traffic classes by rate share, so each class keeps its
// aggregate request rate.
type PopulationSpec = workload.Population

// ParsePopulation converts a population spec string
// "clients:rate_dist:skew[:diurnal_amp:diurnal_period_s[:burst_factor:burst_frac:burst_mean_s]]",
// e.g. "200:zipf:1.2" or "500:zipf:1:0.3:86400:4:0.05:60".
func ParsePopulation(spec string) (PopulationSpec, error) { return workload.ParsePopulation(spec) }

// SessionSpec describes multi-turn conversation structure: geometric
// session lengths with mean MeanTurns, lognormal think times between
// turns, and context growth clamped at MaxContext tokens (turn n's
// prompt carries all prior turns' tokens as a per-conversation cached
// prefix).
type SessionSpec = workload.SessionSpec

// DefaultSessionSpec is the session structure used when a population
// runs without an explicit spec: four-turn conversations, ~10 s think
// times, 4096-token context clamp.
func DefaultSessionSpec() SessionSpec { return workload.DefaultSessionSpec() }

// ParseSessionSpec converts a session spec string
// "mean_turns:think_mean_s:think_sigma[:max_context]", e.g. "4:10:0.6".
func ParseSessionSpec(spec string) (SessionSpec, error) { return workload.ParseSessionSpec(spec) }

// PopulationStream generates session traffic from a client population
// one request at a time, in arrival order: per-client Poisson session
// initiations (heavy-tailed rates, diurnal/burst modulation),
// geometric turn counts, lognormal think times, and per-conversation
// prefix growth. Feeding it to a ClusterScenario via TraceStream is
// byte-identical to collecting it with PopulationTrace first. Err
// reports a terminal generator error (the arrival process overflowing
// the representable time range).
type PopulationStream struct {
	lifted[*workload.PopulationStream]
}

// NewPopulationStream validates the specs and returns the generator.
func NewPopulationStream(classes []TrafficClass, pop PopulationSpec, sess SessionSpec, n int, seed int64) (*PopulationStream, error) {
	wc, err := internalClasses(classes)
	if err != nil {
		return nil, err
	}
	s, err := workload.NewPopulationStream(wc, pop, sess, n, seed)
	if err != nil {
		return nil, err
	}
	return &PopulationStream{lifted[*workload.PopulationStream]{s}}, nil
}

// Target returns the request count the stream was built for.
func (s *PopulationStream) Target() int { return s.inner.Target() }

// PopulationTrace materializes n session-structured requests — the
// collect form of NewPopulationStream, byte-identical per seed.
func PopulationTrace(classes []TrafficClass, pop PopulationSpec, sess SessionSpec, n int, seed int64) ([]Request, error) {
	wc, err := internalClasses(classes)
	if err != nil {
		return nil, err
	}
	reqs, err := workload.PopulationTrace(wc, pop, sess, n, seed)
	if err != nil {
		return nil, err
	}
	return fromWorkload(reqs), nil
}

// ReplayTraceVersion is the trace-replay format version this build
// reads and writes.
const ReplayTraceVersion = workload.ReplayVersion

// ReplayStream replays a recorded trace as a RequestStream: arrivals,
// per-request prefix keys, and session identity round-trip, so a
// replayed run is bit-identical to the run that recorded the trace. The
// file keeps picosecond arrivals, but Next delivers Request.Arrival at
// time.Duration's nanosecond resolution, truncating any finer part. The
// version header is validated on open. Err reports the parse error that
// ended the replay early, nil on a clean end of trace.
type ReplayStream struct {
	lifted[*workload.ReplayStream]
	closer io.Closer
}

// OpenReplayTrace opens a replay trace file, validating its version
// header. Close the stream after the run drains it.
func OpenReplayTrace(path string) (*ReplayStream, error) {
	s, f, err := workload.OpenReplayFile(path)
	if err != nil {
		return nil, err
	}
	return &ReplayStream{lifted[*workload.ReplayStream]{s}, f}, nil
}

// NewReplayStream reads a replay trace from r, validating its version
// header eagerly.
func NewReplayStream(r io.Reader) (*ReplayStream, error) {
	s, err := workload.NewReplayStream(r)
	if err != nil {
		return nil, err
	}
	return &ReplayStream{lifted: lifted[*workload.ReplayStream]{s}}, nil
}

// Generator returns the recorded generator fingerprint from the trace
// header.
func (s *ReplayStream) Generator() string { return s.inner.Generator() }

// Close releases the underlying file (no-op for reader-backed streams).
func (s *ReplayStream) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}

// LoadReplayTrace reads a whole replay trace file into memory.
func LoadReplayTrace(path string) ([]Request, error) {
	reqs, err := workload.LoadReplayFile(path)
	if err != nil {
		return nil, err
	}
	return fromWorkload(reqs), nil
}

// SaveReplayTrace writes a trace to a replay file whose header records
// the format version and the generator fingerprint.
func SaveReplayTrace(path string, trace []Request, generator string) error {
	return workload.SaveReplayFile(path, toWorkload(trace), generator)
}

// RecordingStream tees a RequestStream into a replay trace as the
// engine pulls it: each request is written before being handed on, so
// the recorded trace replays bit-identically against the run that
// produced it. The file keeps picoseconds, but a public stream's
// Request.Arrival is a time.Duration, so recorded arrivals are whole
// nanoseconds. Err and Target forward the wrapped stream's probes.
// Close the recorder after the run to flush the trace; a write failure
// surfaces there.
type RecordingStream struct {
	wrapped
	w *workload.ReplayWriter
	n int // requests recorded so far, the ID of the next one
}

// NewRecordingStream wraps s, writing every pulled request to w in the
// replay format under the given generator fingerprint.
func NewRecordingStream(s RequestStream, w io.Writer, generator string) *RecordingStream {
	return &RecordingStream{wrapped: wrapped{s}, w: workload.NewReplayWriter(w, generator)}
}

// Next pulls from the wrapped stream, recording the request.
func (r *RecordingStream) Next() (Request, bool) {
	req, ok := r.s.Next()
	if !ok {
		return Request{}, false
	}
	r.w.Write(req.internal(r.n))
	r.n++
	return req, true
}

// Close flushes the recorded trace and returns the first write error.
func (r *RecordingStream) Close() error { return r.w.Close() }

// RecordReplayFile is a convenience over NewRecordingStream for file
// targets: it creates path and returns the recorder plus a close
// function that flushes the trace and closes the file.
func RecordReplayFile(path string, s RequestStream, generator string) (*RecordingStream, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("recording trace: %w", err)
	}
	rec := NewRecordingStream(s, f, generator)
	closeFn := func() error {
		if err := rec.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return rec, closeFn, nil
}
