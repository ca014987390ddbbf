package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestParseBench: per-benchmark minima across -count repeats, the -N
// suffix stripped from names, and the host's CPU model and GOMAXPROCS
// read from the output.
func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro/internal/cluster
cpu: Intel(R) Xeon(R) Processor
BenchmarkMillionRequest/replicas=256/reqs=100000-2    1    482241986 ns/op    7353368 B/op    41017 allocs/op
BenchmarkMillionRequest/replicas=256/reqs=100000-2    1    450000000 ns/op    7353400 B/op    41000 allocs/op
BenchmarkRooflineLargeSweep-2    3    1200 ns/op
PASS
pkg: repro/internal/kvcache
cpu: some other line
`
	got, h, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if h.CPU != "Intel(R) Xeon(R) Processor" || h.GOMAXPROCS != 2 || h.GoVersion != "" {
		t.Errorf("host %+v", h)
	}
	m, ok := got["BenchmarkMillionRequest/replicas=256/reqs=100000"]
	if !ok || m.NsPerOp != 450000000 || *m.BytesPerOp != 7353368 || *m.AllocsPerOp != 41000 {
		t.Errorf("million minima: %+v (found %v)", m, ok)
	}
	if m, ok := got["BenchmarkRooflineLargeSweep"]; !ok || m.NsPerOp != 1200 || m.AllocsPerOp != nil {
		t.Errorf("sweep: %+v (found %v)", m, ok)
	}

	// go test omits the suffix at GOMAXPROCS=1.
	if _, h, err := parseBench(strings.NewReader("BenchmarkFoo    10    5 ns/op\n")); err != nil || h.GOMAXPROCS != 1 || h.CPU != "" {
		t.Errorf("no suffix: %+v, %v", h, err)
	}
}

// writeBaseline writes a one-entry baseline whose benchmark recorded
// 100 allocs/op and 100000 B/op, and returns its path.
func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	const base = `{"entries": [{"label": "before", "benchmarks": {"BenchmarkFoo": {"ns_per_op": 1000, "allocs_per_op": 100, "bytes_per_op": 100000}}}]}`
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readBaseline(t *testing.T, path string) baseline {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUpdateRefusesMemoryRegression: -update will not append an entry
// whose B/op or allocs/op grew beyond tolerance over the newest entry
// unless -accept-regression gives a reason, which the entry records.
func TestUpdateRefusesMemoryRegression(t *testing.T) {
	for _, tc := range []struct {
		name, line string
	}{
		{"bytes", "BenchmarkFoo-2    1    900 ns/op    200000 B/op    100 allocs/op\n"},
		{"allocs", "BenchmarkFoo-2    1    900 ns/op    100000 B/op    200 allocs/op\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeBaseline(t)
			var out bytes.Buffer
			err := run([]string{"-baseline", path, "-update", "-label", "after"}, strings.NewReader(tc.line), &out)
			if err == nil || !strings.Contains(err.Error(), "BenchmarkFoo") || !strings.Contains(err.Error(), "-accept-regression") {
				t.Fatalf("update over a regression: err %v", err)
			}
			if n := len(readBaseline(t, path).Entries); n != 1 {
				t.Fatalf("refused update still wrote the file: %d entries", n)
			}

			const reason = "cache entries carry their shape key"
			err = run([]string{"-baseline", path, "-update", "-label", "after", "-accept-regression", reason}, strings.NewReader(tc.line), &out)
			if err != nil {
				t.Fatal(err)
			}
			b := readBaseline(t, path)
			if len(b.Entries) != 2 || b.Entries[1].Label != "after" || b.Entries[1].AcceptedRegression != reason {
				t.Fatalf("accepted update: %+v", b.Entries)
			}
		})
	}
}

// TestUpdateWithinTolerance: growth inside tolerance, and improvement,
// append without a reason; a reason given needlessly is not recorded.
func TestUpdateWithinTolerance(t *testing.T) {
	path := writeBaseline(t)
	var out bytes.Buffer
	in := "BenchmarkFoo-2    1    5000 ns/op    110000 B/op    90 allocs/op\n"
	if err := run([]string{"-baseline", path, "-update"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-baseline", path, "-update", "-accept-regression", "unneeded"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	b := readBaseline(t, path)
	if len(b.Entries) != 3 || b.Entries[1].AcceptedRegression != "" || b.Entries[2].AcceptedRegression != "" {
		t.Fatalf("entries %+v", b.Entries)
	}
	if err := run([]string{"-baseline", path, "-accept-regression", "x"}, strings.NewReader(in), &out); err == nil {
		t.Fatal("-accept-regression without -update must be rejected")
	}
}

// TestCompare: the comparison mode passes within tolerance and fails on
// a memory regression.
func TestCompare(t *testing.T) {
	path := writeBaseline(t)
	var out bytes.Buffer
	if err := run([]string{"-baseline", path}, strings.NewReader("BenchmarkFoo    1    1100 ns/op    100000 B/op    100 allocs/op\n"), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	err := run([]string{"-baseline", path}, strings.NewReader("BenchmarkFoo    1    1100 ns/op    100000 B/op    200 allocs/op\n"), &out)
	if err == nil || !strings.Contains(out.String(), "ALLOC-REGRESSION") {
		t.Fatalf("alloc regression not reported: %v\n%s", err, out.String())
	}
}

// TestCompareCalibration: ns/op is compared only when the run's host
// calibration is within 10% of the entry's; otherwise the output says
// it was skipped, and allocs/op and B/op are still compared. -update
// records the calibration.
func TestCompareCalibration(t *testing.T) {
	const base = `{"entries": [{"label": "before", "host": {"cpu": "x", "calibration_ns": 1000}, "benchmarks": {"BenchmarkFoo": {"ns_per_op": 1000, "allocs_per_op": 100, "bytes_per_op": 100000}}}]}`
	const slow = "BenchmarkFoo    1    5000 ns/op    100000 B/op    100 allocs/op\n"
	const leaky = "BenchmarkFoo    1    5000 ns/op    100000 B/op    200 allocs/op\n"
	defer func(f func() float64) { calibrate = f }(calibrate)
	for _, tc := range []struct {
		name    string
		calib   float64
		in      string
		fail    string // the status the comparison must fail with, "" to pass
		skipped bool   // whether ns/op must be reported as not compared
	}{
		{"same host, slower code", 1090, slow, "TIME-REGRESSION", false},
		{"slower host", 1200, slow, "", true},
		{"faster host", 850, slow, "", true},
		{"slower host, more allocs", 1200, leaky, "ALLOC-REGRESSION", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
				t.Fatal(err)
			}
			calibrate = func() float64 { return tc.calib }
			var out bytes.Buffer
			err := run([]string{"-baseline", path}, strings.NewReader(tc.in), &out)
			if tc.fail == "" && err != nil || tc.fail != "" && (err == nil || !strings.Contains(out.String(), tc.fail)) {
				t.Fatalf("want failure %q, got %v\n%s", tc.fail, err, out.String())
			}
			if skipped := strings.Contains(out.String(), "ns/op not compared"); skipped != tc.skipped {
				t.Fatalf("ns/op skipped %v, want %v\n%s", skipped, tc.skipped, out.String())
			}
			if err := run([]string{"-baseline", path, "-update", "-accept-regression", "test"}, strings.NewReader(tc.in), &out); err != nil {
				t.Fatal(err)
			}
			if b := readBaseline(t, path); b.Entries[1].Host.CalibrationNs != tc.calib {
				t.Fatalf("updated entry host %+v, want calibration %v", b.Entries[1].Host, tc.calib)
			}
		})
	}
}

// TestCalibrationLoop: the calibration loop allocates nothing and its
// measurement is positive.
func TestCalibrationLoop(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { calibrationSink += calibrationLoop() }); n != 0 {
		t.Fatalf("calibration loop allocates %v times per run", n)
	}
	if ns := measureCalibration(); ns <= 0 {
		t.Fatalf("calibration %v ns/op", ns)
	}
}

// TestBenchRegexMatchesCI: the CI benchmark-regression job and the
// baseline's benchCommand must select the same benchmarks, and that
// selection must measure every benchmark of the newest entry, or CI
// fails on MISSING against a baseline refreshed from benchCommand.
func TestBenchRegexMatchesCI(t *testing.T) {
	benchFlag := regexp.MustCompile(`-bench '([^']+)'`)
	selection := func(name, text string) string {
		t.Helper()
		m := benchFlag.FindAllStringSubmatch(text, -1)
		if len(m) != 1 {
			t.Fatalf("%s: found %d quoted -bench regexes, want 1", name, len(m))
		}
		return m[0][1]
	}
	ci, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	want := selection("ci.yml", string(ci))
	if got := selection("benchCommand", b.BenchCommand); got != want {
		t.Fatalf("benchCommand -bench regex differs from ci.yml:\n  benchCommand: %s\n  ci.yml:       %s", got, want)
	}
	re := regexp.MustCompile(want)
	newest, err := pickEntry(&b, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedNames(newest.Benchmarks) {
		if top, _, _ := strings.Cut(name, "/"); !re.MatchString(top) {
			t.Errorf("newest entry benchmark %s is not selected by the CI regex", name)
		}
	}
}
