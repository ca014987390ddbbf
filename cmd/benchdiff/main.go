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
// GOMAXPROCS from the benchmark names' -N suffix, and benchdiff's own
// Go version.
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
)

type baseline struct {
	Note         string  `json:"note,omitempty"`
	BenchCommand string  `json:"benchCommand,omitempty"`
	Entries      []entry `json:"entries"`
}

type entry struct {
	Label string `json:"label"`
	// Host is absent from entries recorded before benchdiff kept it.
	Host       *host                  `json:"host,omitempty"`
	Benchmarks map[string]measurement `json:"benchmarks"`
}

// host is the machine and toolchain an entry was measured on.
type host struct {
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
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
	baselinePath := flag.String("baseline", "BENCH_hotpath.json", "baseline JSON file")
	entryLabel := flag.String("entry", "", "baseline entry label to compare against (default: newest)")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op slowdown before failing")
	allocTolerance := flag.Float64("alloc-tolerance", 0.20, "allowed fractional allocs/op growth before failing")
	byteTolerance := flag.Float64("byte-tolerance", 0.20, "allowed fractional B/op growth before failing")
	update := flag.Bool("update", false, "append measured results as a new baseline entry instead of comparing")
	label := flag.String("label", "updated", "entry label used with -update")
	flag.Parse()

	measured, h, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *baselinePath, err))
	}

	if *update {
		h.GoVersion = runtime.Version()
		base.Entries = append(base.Entries, entry{Label: *label, Host: &h, Benchmarks: measured})
		out, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: appended entry %q (%d benchmarks) to %s\n", *label, len(measured), *baselinePath)
		return
	}

	ref, err := pickEntry(&base, *entryLabel)
	if err != nil {
		fatal(err)
	}

	names := make([]string, 0, len(ref.Benchmarks))
	for name := range ref.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("benchdiff: comparing against %q (ns/op %+.0f%%, allocs/op %+.0f%%, B/op %+.0f%%)\n",
		ref.Label, *tolerance*100, *allocTolerance*100, *byteTolerance*100)
	failed, missing := 0, 0
	for _, name := range names {
		want := ref.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			fmt.Printf("  MISSING  %-55s (in baseline, not measured)\n", name)
			missing++
			continue
		}
		status := "ok"
		nsRatio := got.NsPerOp / want.NsPerOp
		if nsRatio > 1+*tolerance {
			status = "TIME-REGRESSION"
			failed++
		}
		wantAllocs, gotAllocs := 0.0, 0.0
		if want.AllocsPerOp != nil && got.AllocsPerOp != nil {
			wantAllocs, gotAllocs = *want.AllocsPerOp, *got.AllocsPerOp
			// The small absolute slack keeps near-zero baselines from
			// failing on measurement jitter while still gating a
			// regression away from an allocation-free steady state.
			if gotAllocs > wantAllocs*(1+*allocTolerance)+16 {
				status = "ALLOC-REGRESSION"
				failed++
			}
		}
		wantBytes, gotBytes := 0.0, 0.0
		if want.BytesPerOp != nil && got.BytesPerOp != nil {
			wantBytes, gotBytes = *want.BytesPerOp, *got.BytesPerOp
			// Wider absolute slack than allocs: a single extra slice
			// header or map bucket is tens-to-thousands of bytes.
			if gotBytes > wantBytes*(1+*byteTolerance)+4096 {
				status = "BYTE-REGRESSION"
				failed++
			}
		}
		fmt.Printf("  %-16s %-55s %14.0f -> %14.0f ns/op (%+.1f%%)  %10.0f -> %10.0f allocs/op  %12.0f -> %12.0f B/op\n",
			status, name, want.NsPerOp, got.NsPerOp, (nsRatio-1)*100, wantAllocs, gotAllocs, wantBytes, gotBytes)
	}
	if missing > 0 {
		fatal(fmt.Errorf("%d baseline benchmark(s) were not measured — run the full bench command", missing))
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d benchmark metric(s) regressed beyond tolerance", failed))
	}
	fmt.Println("benchdiff: no regressions")
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
