package main

import (
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
BenchmarkShardedCluster/replicas=16/reqs=20000/shards=2-2    1    482241986 ns/op    7353368 B/op    41017 allocs/op
BenchmarkShardedCluster/replicas=16/reqs=20000/shards=2-2    1    450000000 ns/op    7353400 B/op    41000 allocs/op
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
	m, ok := got["BenchmarkShardedCluster/replicas=16/reqs=20000/shards=2"]
	if !ok || m.NsPerOp != 450000000 || *m.BytesPerOp != 7353368 || *m.AllocsPerOp != 41000 {
		t.Errorf("sharded minima: %+v (found %v)", m, ok)
	}
	if m, ok := got["BenchmarkRooflineLargeSweep"]; !ok || m.NsPerOp != 1200 || m.AllocsPerOp != nil {
		t.Errorf("sweep: %+v (found %v)", m, ok)
	}

	// go test omits the suffix at GOMAXPROCS=1.
	if _, h, err := parseBench(strings.NewReader("BenchmarkFoo    10    5 ns/op\n")); err != nil || h.GOMAXPROCS != 1 || h.CPU != "" {
		t.Errorf("no suffix: %+v, %v", h, err)
	}
}
