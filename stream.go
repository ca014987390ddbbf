package llmservingsim

// Streaming arrivals: the pull-based alternative to materializing a
// trace. A ClusterScenario given a TraceStream instead of a Trace pulls
// each request when the simulation reaches it, so the workload never
// exists as a slice — together with StreamMetrics this holds the
// engine's memory footprint flat in the request count (see the README's
// "Scaling to millions of requests").

import (
	"repro/internal/workload"
)

// RequestStream is a pull-based arrival source. Next returns the
// following request, or false when the stream is exhausted. Arrivals
// must be non-decreasing; the engine rejects an out-of-order stream.
//
// A stream may optionally implement either of two probe methods:
//
//	Err() error  — a terminal generator error, checked after Next
//	               returns false (a false Next with a non-nil Err
//	               fails the run instead of ending it);
//	Target() int — the number of requests the stream intends to emit,
//	               used only for capacity hints.
type RequestStream interface {
	Next() (Request, bool)
}

// MultiClassStream generates the same arrival process as
// MultiClassTrace — a merged Poisson mix of the traffic classes, rates
// scaled by the ramp — one request at a time. Feeding it to a
// ClusterScenario via TraceStream is byte-identical to collecting it
// with MultiClassTrace first; only the memory footprint differs. Err
// reports a terminal generator error (the arrival process overflowing
// the representable time range).
type MultiClassStream struct {
	lifted[*workload.MultiClassStream]
}

// NewMultiClassStream returns the streaming form of
// MultiClassTrace(classes, n, ramp, seed).
func NewMultiClassStream(classes []TrafficClass, n int, ramp Ramp, seed int64) (*MultiClassStream, error) {
	wc, err := internalClasses(classes)
	if err != nil {
		return nil, err
	}
	s, err := workload.NewMultiClassStream(wc, n, ramp.internal(), seed)
	if err != nil {
		return nil, err
	}
	return &MultiClassStream{lifted[*workload.MultiClassStream]{s}}, nil
}

// Target returns the request count the stream was built for.
func (s *MultiClassStream) Target() int { return s.inner.Target() }

// lifted carries a built-in internal stream across the API boundary:
// the public stream types embed it for their Next and Err.
type lifted[S interface {
	workload.Stream
	Err() error
}] struct {
	inner S
}

// Next returns the stream's next request.
func (l *lifted[S]) Next() (Request, bool) {
	r, ok := l.inner.Next()
	if !ok {
		return Request{}, false
	}
	return publicRequest(r), true
}

// Err reports the error that ended the stream early, nil on a clean
// end.
func (l *lifted[S]) Err() error { return l.inner.Err() }

// wrapped holds a caller's RequestStream and forwards its optional
// Err/Target probes for the types that embed it.
type wrapped struct {
	s RequestStream
}

// Err forwards the wrapped stream's terminal error.
func (w *wrapped) Err() error {
	if e, ok := w.s.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Target forwards the wrapped stream's emission target.
func (w *wrapped) Target() int {
	if t, ok := w.s.(interface{ Target() int }); ok {
		return t.Target()
	}
	return 0
}

// streamAdapter lifts a public RequestStream into the internal stream
// form. IDs are assigned by the engine in arrival order, exactly as
// toWorkload numbers a trace.
type streamAdapter struct {
	wrapped
}

func (a *streamAdapter) Next() (workload.Request, bool) {
	r, ok := a.s.Next()
	if !ok {
		return workload.Request{}, false
	}
	return r.internal(0), true
}
