package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// A recorded trace must parse back to the exact request sequence —
// every field, picosecond arrivals included.
func TestReplayRoundTrip(t *testing.T) {
	trace, err := PopulationTrace(sessionTestClasses(), sessionTestPopulation(), sessionTestSpec(), 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReplayTrace(&buf, trace, "unit-test generator v1"); err != nil {
		t.Fatal(err)
	}
	got, err := ParseReplayTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, got) {
		t.Fatal("replay round trip changed the trace")
	}
	// Streaming read reports the recorded fingerprint.
	s, err := NewReplayStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Generator() != "unit-test generator v1" {
		t.Fatalf("generator fingerprint %q", s.Generator())
	}
	// A second write of the same trace is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteReplayTrace(&buf2, trace, "unit-test generator v1"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("recording is not deterministic")
	}
}

// Legacy-trace round trips too: classless requests use the "-"
// sentinel and zero session fields.
func TestReplayRoundTripClassless(t *testing.T) {
	trace, err := PoissonTrace(ShareGPT(), 50, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReplayTrace(&buf, trace, "g"); err != nil {
		t.Fatal(err)
	}
	got, err := ParseReplayTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, got) {
		t.Fatal("classless round trip changed the trace")
	}
}

func TestReplayParserRejects(t *testing.T) {
	const header = "#repro-trace v1 generator=g\n" +
		"input_toks\toutput_toks\tarrival_ps\tclass\tprefix_toks\tprefix_key\tsession\tturn\tturns\n"
	row := "10\t5\t1000\tchat\t0\t-\t0\t0\t0\n"
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "line 1"},
		{"no_magic", "input_toks\toutput\n", "line 1"},
		{"bad_version_token", "#repro-trace vv1 generator=g\n", "version"},
		{"future_version", "#repro-trace v99 generator=g\n", "unsupported trace version"},
		{"no_generator", "#repro-trace v1\n", "line 1"},
		{"missing_columns", "#repro-trace v1 generator=g\n", "line 2"},
		{"wrong_columns", "#repro-trace v1 generator=g\nin\tout\n", "column header mismatch"},
		{"short_row", header + "10\t5\t1000\n", "line 3"},
		{"bad_int", header + "x\t5\t1000\tchat\t0\t-\t0\t0\t0\n", "line 3"},
		{"zero_input", header + "0\t5\t1000\tchat\t0\t-\t0\t0\t0\n", "line 3"},
		{"neg_arrival", header + "10\t5\t-1\tchat\t0\t-\t0\t0\t0\n", "line 3"},
		{"prefix_over", header + "10\t5\t1000\tchat\t11\t-\t0\t0\t0\n", "line 3"},
		{"turn_no_session", header + "10\t5\t1000\tchat\t0\t-\t0\t1\t1\n", "line 3"},
		{"turn_over", header + "10\t5\t1000\tchat\t0\tk\t1\t3\t2\n", "line 3"},
		{"huge_field", header + "99999999999999\t5\t1000\tchat\t0\t-\t0\t0\t0\n", "out of range"},
		{"out_of_order", header + row + "10\t5\t500\tchat\t0\t-\t0\t0\t0\n", "line 4"},
	}
	for _, tc := range cases {
		_, err := ParseReplayTrace(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
	// The happy path with the exact literal header parses.
	got, err := ParseReplayTrace(strings.NewReader(header + row))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Arrival != simtime.Time(1000) {
		t.Fatalf("parsed %+v", got)
	}
}

// The legacy TSV reader must not silently misparse a replay trace.
func TestReadTSVRejectsReplayTrace(t *testing.T) {
	var buf bytes.Buffer
	trace, err := PoissonTrace(Alpaca(), 5, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteReplayTrace(&buf, trace, "g"); err != nil {
		t.Fatal(err)
	}
	_, err = ReadTSV(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("ReadTSV on a replay trace: %v", err)
	}
}

func TestReplayFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.tsv")
	trace, err := PopulationTrace(sessionTestClasses(), sessionTestPopulation(), sessionTestSpec(), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveReplayFile(path, trace, "helper-test"); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, got) {
		t.Fatal("file round trip changed the trace")
	}
	s, f, err := OpenReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	streamed, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, streamed) {
		t.Fatal("streamed file read changed the trace")
	}
}

// TestReplayCompat replays the checked-in v1 corpus, so format or
// parser drift fails the build even if writer and reader drift
// together. Each corpus file must parse and round-trip byte-identically
// through the current writer.
func TestReplayCompat(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "traces", "v1-*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no v1 trace corpus found in testdata/traces")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewReplayStream(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		reqs, err := Collect(s)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(reqs) == 0 {
			t.Fatalf("%s: empty corpus trace", path)
		}
		var buf bytes.Buffer
		if err := WriteReplayTrace(&buf, reqs, s.Generator()); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(bytes.TrimRight(data, "\n"), bytes.TrimRight(buf.Bytes(), "\n")) {
			t.Fatalf("%s: current writer does not reproduce the checked-in bytes", path)
		}
	}
}

// TestReplayWriterRows: every row the writer formats is byte for byte
// the row of the format's original fmt rendering, on random requests
// that include empty class and prefix-key fields, sessions, and
// arrivals up to the largest picosecond time.
func TestReplayWriterRows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	words := []string{"", "", "chat", "code-assist", "s17/t3", "x"}
	// Arrivals from zero to the largest picosecond time, some repeated,
	// sorted into the writer's non-decreasing order.
	arrivals := make([]simtime.Time, 2000)
	for i := range arrivals {
		switch r.Intn(4) {
		case 0:
			arrivals[i] = simtime.Time(r.Int63n(1e6))
		case 1:
			arrivals[i] = simtime.Time(r.Int63())
		default:
			arrivals[i] = simtime.Time(r.Int63n(1e15))
		}
	}
	arrivals[0], arrivals[1] = 0, math.MaxInt64
	slices.Sort(arrivals)
	var reqs []Request
	for i, at := range arrivals {
		in := 1 + r.Intn(1<<20)
		q := Request{ID: i, InputLen: in, OutputLen: 1 + r.Intn(1<<20), Arrival: at,
			Class: words[r.Intn(len(words))], PrefixLen: r.Intn(in + 1), PrefixKey: words[r.Intn(len(words))]}
		if r.Intn(2) == 0 {
			q.SessionTurns = 1 + r.Intn(64)
			q.Session, q.Turn = 1+r.Intn(1<<30), 1+r.Intn(q.SessionTurns)
		}
		reqs = append(reqs, q)
	}

	var buf bytes.Buffer
	if err := WriteReplayTrace(&buf, reqs, "g"); err != nil {
		t.Fatal(err)
	}
	rows := strings.SplitAfter(buf.String(), "\n")
	rows = rows[2 : len(rows)-1] // the header and column lines; the empty tail
	if len(rows) != len(reqs) {
		t.Fatalf("%d rows for %d requests", len(rows), len(reqs))
	}
	orDash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	for i, q := range reqs {
		want := fmt.Sprintf("%d\t%d\t%d\t%s\t%d\t%s\t%d\t%d\t%d\n",
			q.InputLen, q.OutputLen, int64(q.Arrival), orDash(q.Class), q.PrefixLen, orDash(q.PrefixKey),
			q.Session, q.Turn, q.SessionTurns)
		if rows[i] != want {
			t.Fatalf("row %d: %q, want %q", i, rows[i], want)
		}
	}
}
