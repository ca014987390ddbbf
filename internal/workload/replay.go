package workload

// Versioned trace replay: a TSV format that round-trips every field of
// a generated request exactly, so a recorded run replays bit-identically
// through the same cluster pipeline. Unlike the artifact's legacy TSV
// (lossy millisecond arrivals, no session structure), replay traces
// carry int64-picosecond arrivals, per-request prefix keys, and
// session/turn identity, plus a header line pinning the format version
// and the generator fingerprint:
//
//	#repro-trace v1 generator=<free text>
//	input_toks<TAB>output_toks<TAB>arrival_ps<TAB>class<TAB>prefix_toks<TAB>prefix_key<TAB>session<TAB>turn<TAB>turns
//	207<TAB>119<TAB>412803566863<TAB>chat<TAB>0<TAB>-<TAB>0<TAB>0<TAB>0
//
// Empty class and prefix_key fields are written as "-". The parser is
// strict: unknown versions, malformed headers, short/long rows, and
// out-of-order arrivals are rejected with line-anchored errors.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/simtime"
)

const (
	// ReplayVersion is the current replay trace format version; parsers
	// reject traces declaring any other version.
	ReplayVersion = 1

	replayMagic     = "#repro-trace"
	replayColumns   = "input_toks\toutput_toks\tarrival_ps\tclass\tprefix_toks\tprefix_key\tsession\tturn\tturns"
	replayNumFields = 9
	replayEmpty     = "-" // sentinel for empty class/prefix_key fields
)

// replayHeader renders the version/fingerprint header line. Newlines and
// tabs in the generator fingerprint would corrupt the format, so they
// are flattened to spaces.
func replayHeader(generator string) string {
	generator = strings.Map(func(r rune) rune {
		switch r {
		case '\n', '\r', '\t':
			return ' '
		}
		return r
	}, generator)
	return fmt.Sprintf("%s v%d generator=%s", replayMagic, ReplayVersion, generator)
}

// parseReplayHeader validates the first line of a replay trace and
// returns the generator fingerprint.
func parseReplayHeader(line string) (generator string, err error) {
	rest, ok := strings.CutPrefix(line, replayMagic+" ")
	if !ok {
		return "", fmt.Errorf("workload: replay line 1: want %q header, got %q", replayMagic+" v<N> generator=...", line)
	}
	verTok, rest, _ := strings.Cut(rest, " ")
	ver, verErr := strconv.Atoi(strings.TrimPrefix(verTok, "v"))
	if !strings.HasPrefix(verTok, "v") || verErr != nil {
		return "", fmt.Errorf("workload: replay line 1: malformed version token %q (want v<N>)", verTok)
	}
	if ver != ReplayVersion {
		return "", fmt.Errorf("workload: replay line 1: unsupported trace version v%d (this build reads v%d)", ver, ReplayVersion)
	}
	generator, ok = strings.CutPrefix(rest, "generator=")
	if !ok {
		return "", fmt.Errorf("workload: replay line 1: missing generator= fingerprint after version")
	}
	return generator, nil
}

// ReplayWriter streams requests into the replay trace format. Errors are
// sticky: the first failure is remembered and every later call is a
// no-op, so callers check Close once (the RequestsTSVWriter convention).
type ReplayWriter struct {
	bw   *bufio.Writer
	row  []byte // the row being formatted, reused across Write calls
	err  error
	last simtime.Time
	any  bool
}

// NewReplayWriter writes the version header and returns the writer.
func NewReplayWriter(w io.Writer, generator string) *ReplayWriter {
	rw := &ReplayWriter{bw: bufio.NewWriter(w)}
	_, err := fmt.Fprintf(rw.bw, "%s\n%s\n", replayHeader(generator), replayColumns)
	rw.err = err
	return rw
}

// Write appends one request row. Requests must be valid and in
// non-decreasing arrival order — the invariant replay consumers rely on.
func (w *ReplayWriter) Write(r Request) {
	if w.err != nil {
		return
	}
	if w.err = r.Validate(); w.err != nil {
		return
	}
	if w.any && r.Arrival < w.last {
		w.err = fmt.Errorf("workload: replay writer: request %d arrives at %v before previous arrival %v", r.ID, r.Arrival, w.last)
		return
	}
	w.any, w.last = true, r.Arrival
	class, key := r.Class, r.PrefixKey
	if class == "" {
		class = replayEmpty
	}
	if key == "" {
		key = replayEmpty
	}
	// Formatted with strconv into a reused buffer: fmt's reflection made
	// up most of the cost of recording a large trace.
	b := strconv.AppendInt(w.row[:0], int64(r.InputLen), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.OutputLen), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Arrival), 10)
	b = append(b, '\t')
	b = append(b, class...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.PrefixLen), 10)
	b = append(b, '\t')
	b = append(b, key...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Session), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Turn), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.SessionTurns), 10)
	b = append(b, '\n')
	w.row = b
	_, w.err = w.bw.Write(b)
}

// Close flushes buffered rows and returns the first error encountered.
func (w *ReplayWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// WriteReplayTrace writes a materialized trace in the replay format.
func WriteReplayTrace(w io.Writer, reqs []Request, generator string) error {
	rw := NewReplayWriter(w, generator)
	for _, r := range reqs {
		rw.Write(r)
	}
	return rw.Close()
}

// ReplayStream reads a replay trace one request at a time, implementing
// the Stream interface so replays run through RunStream at any scale
// with flat memory. The header is validated eagerly by NewReplayStream;
// row errors surface through Err after Next reports false. IDs are
// assigned in file order.
type ReplayStream struct {
	sc     *bufio.Scanner
	gen    string
	lineNo int
	id     int
	last   simtime.Time
	any    bool
	err    error
}

// NewReplayStream validates the version header and column line, failing
// fast on unknown versions so a replay never silently misreads a trace
// written by a different format generation.
func NewReplayStream(r io.Reader) (*ReplayStream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: reading replay trace: %w", err)
		}
		return nil, fmt.Errorf("workload: replay line 1: empty trace (want %s header)", replayMagic)
	}
	gen, err := parseReplayHeader(sc.Text())
	if err != nil {
		return nil, err
	}
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: reading replay trace: %w", err)
		}
		return nil, fmt.Errorf("workload: replay line 2: missing column header")
	}
	if sc.Text() != replayColumns {
		return nil, fmt.Errorf("workload: replay line 2: column header mismatch: got %q, want %q", sc.Text(), replayColumns)
	}
	return &ReplayStream{sc: sc, gen: gen, lineNo: 2}, nil
}

// Generator returns the recorded generator fingerprint from the header.
func (s *ReplayStream) Generator() string { return s.gen }

// Err reports the error that stopped the stream early, nil otherwise.
func (s *ReplayStream) Err() error { return s.err }

// Next yields the next request, false at end of trace or on a malformed
// row (see Err).
func (s *ReplayStream) Next() (Request, bool) {
	if s.err != nil {
		return Request{}, false
	}
	for s.sc.Scan() {
		s.lineNo++
		line := s.sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		r, err := s.parseRow(line)
		if err != nil {
			s.err = err
			return Request{}, false
		}
		return r, true
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("workload: reading replay trace: %w", err)
	}
	return Request{}, false
}

func (s *ReplayStream) parseRow(line string) (Request, error) {
	fields := strings.Split(line, "\t")
	if len(fields) != replayNumFields {
		return Request{}, fmt.Errorf("workload: replay line %d: want %d tab-separated fields, got %d", s.lineNo, replayNumFields, len(fields))
	}
	ints := make([]int64, replayNumFields)
	for i, f := range fields {
		if i == 3 || i == 5 { // class, prefix_key
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return Request{}, fmt.Errorf("workload: replay line %d: field %d: %w", s.lineNo, i+1, err)
		}
		ints[i] = v
	}
	for _, i := range []int{0, 1, 4, 6, 7, 8} {
		if ints[i] > math.MaxInt32 {
			return Request{}, fmt.Errorf("workload: replay line %d: field %d: value %d out of range", s.lineNo, i+1, ints[i])
		}
	}
	class, key := fields[3], fields[5]
	if class == replayEmpty {
		class = ""
	}
	if key == replayEmpty {
		key = ""
	}
	r := Request{
		ID:           s.id,
		InputLen:     int(ints[0]),
		OutputLen:    int(ints[1]),
		Arrival:      simtime.Time(ints[2]),
		Class:        class,
		PrefixLen:    int(ints[4]),
		PrefixKey:    key,
		Session:      int(ints[6]),
		Turn:         int(ints[7]),
		SessionTurns: int(ints[8]),
	}
	if err := r.Validate(); err != nil {
		return Request{}, fmt.Errorf("workload: replay line %d: %w", s.lineNo, err)
	}
	if s.any && r.Arrival < s.last {
		return Request{}, fmt.Errorf("workload: replay line %d: arrival %d ps before previous arrival %d ps (replay traces must be arrival-ordered)", s.lineNo, int64(r.Arrival), int64(s.last))
	}
	s.any, s.last = true, r.Arrival
	s.id++
	return r, nil
}

// ParseReplayTrace reads a whole replay trace into memory — the collect
// wrapper over ReplayStream.
func ParseReplayTrace(r io.Reader) ([]Request, error) {
	s, err := NewReplayStream(r)
	if err != nil {
		return nil, err
	}
	return Collect(s)
}

// OpenReplayFile opens a replay trace file as a stream. Callers must
// close the returned file once the stream is drained.
func OpenReplayFile(path string) (*ReplayStream, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("workload: %w", err)
	}
	s, err := NewReplayStream(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return s, f, nil
}

// LoadReplayFile reads a replay trace file from disk.
func LoadReplayFile(path string) ([]Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	return ParseReplayTrace(f)
}

// SaveReplayFile writes a replay trace file to disk.
func SaveReplayFile(path string, reqs []Request, generator string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := WriteReplayTrace(f, reqs, generator); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
