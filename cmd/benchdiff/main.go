// Command benchdiff compares `go test -bench` output against a committed
// baseline (BENCH_hotpath.json) and fails on regressions — the CI guard
// that keeps the simulator's hot paths from quietly getting slower.
//
// Usage:
//
//	go test -run=NONE -bench ... -benchtime=1x -count=3 ./internal/... |
//	    go run ./cmd/benchdiff -baseline BENCH_hotpath.json
//
// Benchmark output is read from stdin; when a benchmark appears several
// times (-count=N) the minimum per metric is used, which rejects
// scheduler noise. Three metrics are compared per benchmark: ns/op
// (hardware-dependent — regenerate the baseline when the reference
// machine changes), allocs/op, and B/op (both stable across machines,
// so a genuine algorithmic regression fails CI deterministically; B/op
// additionally catches same-count-but-bigger allocations, e.g. a
// record table regrowing in a streaming run). Only benchmarks present
// in the baseline entry participate.
//
// -update appends a fresh entry (the measured minima) to the baseline
// file instead of comparing, for refreshing the baseline after an
// intentional performance change. The entry records the host it was
// measured on: the CPU model from the bench output's "cpu:" line,
// GOMAXPROCS from the benchmark names' -N suffix, benchdiff's own Go
// version, and a host calibration: the ns/op of a fixed,
// allocation-free loop that benchdiff times after reading its input.
// The CPU string alone does not tell a slow host from a fast one, so
// when the calibrations of the run and the entry differ by more than
// 10%, ns/op is not compared (the output says so); allocs/op and B/op
// still are. Machine-stable metrics cannot drift silently: -update
// refuses an entry whose allocs/op or B/op exceed the newest entry's
// beyond tolerance, unless -accept-regression gives the reason, which
// the entry then records.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type baseline struct {
	Note         string  `json:"note,omitempty"`
	BenchCommand string  `json:"benchCommand,omitempty"`
	Entries      []entry `json:"entries"`
}

type entry struct {
	Label string `json:"label"`
	// Host is absent from entries recorded before benchdiff kept it.
	Host *host `json:"host,omitempty"`
	// AcceptedRegression is the reason an -update accepted allocs/op or
	// B/op growth over the previous entry.
	AcceptedRegression string                 `json:"accepted_regression,omitempty"`
	Benchmarks         map[string]measurement `json:"benchmarks"`
}

// host is the machine and toolchain an entry was measured on.
type host struct {
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	// CalibrationNs is calibrationLoop's ns/op on the host; zero in
	// entries recorded before benchdiff measured it.
	CalibrationNs float64 `json:"calibration_ns,omitempty"`
}

// calibrationSpread is how far apart, as a fraction of the entry's
// figure, two host calibrations may be for ns/op to be compared.
const calibrationSpread = 0.10

// calibrate measures the host calibration; tests replace it.
var calibrate = measureCalibration

var calibrationSink uint64

// calibrationLoop is the host calibration workload: a fixed chain of
// dependent xorshift steps, allocation-free and independent of the
// simulator's code, so its speed follows only the host's core.
func calibrationLoop() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for range 1 << 22 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// measureCalibration returns calibrationLoop's ns/op: the minimum of
// seven timings, which rejects scheduler noise as the benchmark minima
// do.
func measureCalibration() float64 {
	best := time.Duration(1<<63 - 1)
	for range 7 {
		start := time.Now()
		calibrationSink += calibrationLoop()
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds())
}

type measurement struct {
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is a pointer so that "benchmark reached 0 allocs/op"
	// stays distinguishable from "no allocation data recorded" — a zero
	// baseline must still gate regressions away from zero.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// BytesPerOp follows the same convention; older baseline entries
	// predate the field and simply don't gate on it.
	BytesPerOp *float64 `json:"bytes_per_op,omitempty"`
}

// benchLine matches e.g.
// "BenchmarkFoo/case=1-8   3   12345 ns/op   678 B/op   9 allocs/op";
// the -N GOMAXPROCS suffix is optional (go test omits it at
// GOMAXPROCS=1) and stripped from the name, and the B/op and allocs/op
// columns only appear under -benchmem/ReportAllocs.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// tolerances are the allowed fractional growths per metric.
type tolerances struct{ ns, allocs, bytes float64 }

// run is the command: it reads benchmark output from stdin and compares
// it with, or appends it to, the baseline file.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_hotpath.json", "baseline JSON file")
	entryLabel := fs.String("entry", "", "baseline entry label to compare against (default: newest)")
	var tol tolerances
	fs.Float64Var(&tol.ns, "tolerance", 0.20, "allowed fractional ns/op slowdown before failing")
	fs.Float64Var(&tol.allocs, "alloc-tolerance", 0.20, "allowed fractional allocs/op growth before failing")
	fs.Float64Var(&tol.bytes, "byte-tolerance", 0.20, "allowed fractional B/op growth before failing")
	update := fs.Bool("update", false, "append measured results as a new baseline entry instead of comparing")
	label := fs.String("label", "updated", "entry label used with -update")
	accept := fs.String("accept-regression", "", "with -update, the reason to record allocs/op or B/op growth over the newest entry instead of refusing it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *accept != "" && !*update {
		return fmt.Errorf("-accept-regression only applies to -update")
	}

	measured, h, err := parseBench(stdin)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	h.CalibrationNs = calibrate()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *baselinePath, err)
	}

	if *update {
		if len(base.Entries) > 0 {
			newest := &base.Entries[len(base.Entries)-1]
			var grew []string
			for _, name := range sortedNames(newest.Benchmarks) {
				if got, ok := measured[name]; ok {
					if r := memoryRegression(newest.Benchmarks[name], got, tol); r != "" {
						grew = append(grew, name+" "+r)
					}
				}
			}
			if len(grew) > 0 && *accept == "" {
				return fmt.Errorf("refusing -update: %d benchmark(s) grew beyond tolerance over %q (pass -accept-regression \"<reason>\" to record them):\n  %s",
					len(grew), newest.Label, strings.Join(grew, "\n  "))
			}
			if len(grew) == 0 && *accept != "" {
				fmt.Fprintln(stdout, "benchdiff: nothing grew beyond tolerance; -accept-regression not recorded")
				*accept = ""
			}
		}
		h.GoVersion = runtime.Version()
		base.Entries = append(base.Entries, entry{Label: *label, Host: &h, AcceptedRegression: *accept, Benchmarks: measured})
		out, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchdiff: appended entry %q (%d benchmarks) to %s\n", *label, len(measured), *baselinePath)
		return nil
	}

	ref, err := pickEntry(&base, *entryLabel)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "benchdiff: comparing against %q (ns/op %+.0f%%, allocs/op %+.0f%%, B/op %+.0f%%)\n",
		ref.Label, tol.ns*100, tol.allocs*100, tol.bytes*100)
	compareTime := true
	if ref.Host == nil || ref.Host.CalibrationNs == 0 {
		fmt.Fprintf(stdout, "benchdiff: %q has no host calibration; ns/op compared without one\n", ref.Label)
	} else if ratio := h.CalibrationNs / ref.Host.CalibrationNs; ratio > 1+calibrationSpread || ratio < 1-calibrationSpread {
		compareTime = false
		fmt.Fprintf(stdout, "benchdiff: host calibration %.0f ns/op is %+.1f%% off %q's %.0f ns/op (more than %.0f%%): ns/op not compared, allocs/op and B/op are\n",
			h.CalibrationNs, (ratio-1)*100, ref.Label, ref.Host.CalibrationNs, calibrationSpread*100)
	}
	failed, missing := 0, 0
	for _, name := range sortedNames(ref.Benchmarks) {
		want := ref.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(stdout, "  MISSING  %-55s (in baseline, not measured)\n", name)
			missing++
			continue
		}
		status := "ok"
		nsRatio := got.NsPerOp / want.NsPerOp
		if compareTime && nsRatio > 1+tol.ns {
			status = "TIME-REGRESSION"
			failed++
		}
		if r := memoryRegression(want, got, tol); r != "" {
			status = r
			failed++
		}
		wantAllocs, gotAllocs := both(want.AllocsPerOp, got.AllocsPerOp)
		wantBytes, gotBytes := both(want.BytesPerOp, got.BytesPerOp)
		fmt.Fprintf(stdout, "  %-16s %-55s %14.0f -> %14.0f ns/op (%+.1f%%)  %10.0f -> %10.0f allocs/op  %12.0f -> %12.0f B/op\n",
			status, name, want.NsPerOp, got.NsPerOp, (nsRatio-1)*100,
			wantAllocs, gotAllocs, wantBytes, gotBytes)
	}
	if missing > 0 {
		return fmt.Errorf("%d baseline benchmark(s) were not measured — run the full bench command", missing)
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark metric(s) regressed beyond tolerance", failed)
	}
	fmt.Fprintln(stdout, "benchdiff: no regressions")
	return nil
}

// memoryRegression reports "ALLOC-REGRESSION" or "BYTE-REGRESSION"
// when got's allocs/op or B/op exceed want's beyond tolerance, and ""
// otherwise (including when either side has no memory data).
func memoryRegression(want, got measurement, tol tolerances) string {
	// The small absolute slack keeps near-zero baselines from failing on
	// measurement jitter while still gating a regression away from an
	// allocation-free steady state.
	if want.AllocsPerOp != nil && got.AllocsPerOp != nil &&
		*got.AllocsPerOp > *want.AllocsPerOp*(1+tol.allocs)+16 {
		return "ALLOC-REGRESSION"
	}
	// Wider absolute slack than allocs: a single extra slice header or
	// map bucket is tens-to-thousands of bytes.
	if want.BytesPerOp != nil && got.BytesPerOp != nil &&
		*got.BytesPerOp > *want.BytesPerOp*(1+tol.bytes)+4096 {
		return "BYTE-REGRESSION"
	}
	return ""
}

// both returns *a and *b when both are set, else zeros: a metric is
// printed only when both sides of the comparison have it.
func both(a, b *float64) (float64, float64) {
	if a == nil || b == nil {
		return 0, 0
	}
	return *a, *b
}

// sortedNames returns the benchmark names of an entry in order.
func sortedNames(m map[string]measurement) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// parseBench extracts per-benchmark minima from go test output, and
// the host's CPU model and GOMAXPROCS from the first "cpu:" line and
// the first benchmark line.
func parseBench(r io.Reader) (map[string]measurement, host, error) {
	out := map[string]measurement{}
	var h host
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if cpu, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok && h.CPU == "" {
			h.CPU = strings.TrimSpace(cpu)
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if h.GOMAXPROCS == 0 {
			h.GOMAXPROCS = 1
			if m[2] != "" {
				h.GOMAXPROCS, _ = strconv.Atoi(m[2]) // digits, per benchLine
			}
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, h, fmt.Errorf("parsing %q: %w", sc.Text(), err)
		}
		cur := measurement{NsPerOp: ns}
		if m[4] != "" {
			bytes, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, h, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			allocs, err := strconv.ParseFloat(m[5], 64)
			if err != nil {
				return nil, h, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			cur.BytesPerOp = &bytes
			cur.AllocsPerOp = &allocs
		}
		prev, seen := out[m[1]]
		if !seen {
			out[m[1]] = cur
			continue
		}
		if cur.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = cur.NsPerOp
		}
		if cur.AllocsPerOp != nil && (prev.AllocsPerOp == nil || *cur.AllocsPerOp < *prev.AllocsPerOp) {
			prev.AllocsPerOp = cur.AllocsPerOp
		}
		if cur.BytesPerOp != nil && (prev.BytesPerOp == nil || *cur.BytesPerOp < *prev.BytesPerOp) {
			prev.BytesPerOp = cur.BytesPerOp
		}
		out[m[1]] = prev
	}
	return out, h, sc.Err()
}

func pickEntry(b *baseline, label string) (*entry, error) {
	if len(b.Entries) == 0 {
		return nil, fmt.Errorf("baseline has no entries")
	}
	if label == "" {
		return &b.Entries[len(b.Entries)-1], nil
	}
	for i := range b.Entries {
		if b.Entries[i].Label == label {
			return &b.Entries[i], nil
		}
	}
	return nil, fmt.Errorf("baseline entry %q not found", label)
}
