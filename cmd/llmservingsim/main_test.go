package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	llmservingsim "repro"
)

// runCLI drives run in-process and returns what it printed.
func runCLI(args ...string) (stdout, stderr string, err error) {
	var out, errOut bytes.Buffer
	err = run(args, &out, &errOut)
	return out.String(), errOut.String(), err
}

// The trace-replay matrix of CI's trace-replay job: a fixed-seed session
// workload recorded to a trace, then replayed, under every router and
// backend pair.
var (
	replayCommon = []string{"-model", "gpt2", "-npu-num", "2", "-replicas", "2", "-prefix-cache", "gpu", "-stream",
		"-classes", "chat:sharegpt:3:1000:80:128,api:alpaca:5:500:50", "-requests", "400", "-seed", "20240614"}
	replaySession = []string{"-population", "40:zipf:1.1:0.4:600", "-sessions", "4:8:0.6:1024"}
)

// report drops the lines of a printed report that vary between
// identical runs (wall clock) or name output paths.
func report(out string) string {
	var keep []string
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.Contains(line, "wall clock") && !strings.HasPrefix(line, "wrote ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestGoldenCLI runs the trace-replay matrix through run. Each replay
// must reproduce its generating run's printed report and all four
// TSVs, every recording must be byte-identical, and the SHA-256 of
// every output and of the trace is pinned, so any change to what the
// command prints or writes fails here. Regenerate with
//
//	GOLDEN_PRINT=1 go test -run TestGoldenCLI -v ./cmd/llmservingsim | grep 'golden:'
//
// only after an intended change to simulated behaviour or the report.
func TestGoldenCLI(t *testing.T) {
	goldens := map[string]string{
		"round-robin-astra/report":              "dba07a8c182c037f67ae6f09c75c91d17a10eb2b4d1fa887ef2fa0e928a89611",
		"round-robin-astra/classes.tsv":         "2b2561cf3ef1e785bd05bad89761a63fa9ab1a935462edce5e2b22b70598ac3b",
		"round-robin-astra/replicas.tsv":        "8f13e9f60809b0e6075e6cc1f9dca40426ca8a3dbc9ee8e275a9f29c20825040",
		"round-robin-astra/fleet.tsv":           "e4b368eaad3a6df17ed0887e8ac335e0e90bd35273a9a391acbb46cc3c091477",
		"round-robin-astra/requests.tsv":        "0e71c67d3013e0b8dbaa7ea1beb4c29419dea7493a8fb4b282f347fcf42238e9",
		"round-robin-roofline/report":           "47e4f044a146a764d28a0d1797bc7914097e33ad08849972da58f4ea2f7e1fb0",
		"round-robin-roofline/classes.tsv":      "6e150538d7e122ab6d8dc381376536f22520d1712a1adff05625817cb3e201dc",
		"round-robin-roofline/replicas.tsv":     "42f429cecfe3beb7066840e6d2d71463aa0df58a33dd7653c1c83dbd0ff00aca",
		"round-robin-roofline/fleet.tsv":        "3a23a59ec32fecb4fdbd904913bf25a0be4ffa20e2cff114f61dc351a4ab85a1",
		"round-robin-roofline/requests.tsv":     "c67178ff1c8992d3ef7657774476da07462d9731bb4c0382e9f8c080e30e59a2",
		"least-loaded-astra/report":             "325547336e7186bafbcbfc803b7457ad2f85a9f0cc83bb7a1b5f8e031b09957c",
		"least-loaded-astra/classes.tsv":        "405a061334d73a303d06af360aea8067b1e0eab5b78ad2357c6efbd4875bf335",
		"least-loaded-astra/replicas.tsv":       "36a5b2e2c16e3928ea5f8a44968cd61c59e77149e51a38739c001a853845bae9",
		"least-loaded-astra/fleet.tsv":          "e4b368eaad3a6df17ed0887e8ac335e0e90bd35273a9a391acbb46cc3c091477",
		"least-loaded-astra/requests.tsv":       "9509059e58e8988bbe606201ee7fe760442d96d5732cdc5087f6575f98ad7b8f",
		"least-loaded-roofline/report":          "3d409b564bbd9df4c3a6672bd533338c23323cf0b5b656d779f4580d2f07827e",
		"least-loaded-roofline/classes.tsv":     "c5b53eed571aebc3d19b1dd8c9475459ce91e4c684d09793a074a52ebcdd6ff9",
		"least-loaded-roofline/replicas.tsv":    "a5efc62f4c5698852d98d4b70898932e72e1143dd864aca1f4f78760d9279859",
		"least-loaded-roofline/fleet.tsv":       "3a23a59ec32fecb4fdbd904913bf25a0be4ffa20e2cff114f61dc351a4ab85a1",
		"least-loaded-roofline/requests.tsv":    "b100550d4e7d612ffb7c0b14e82384a80b3bf178b50f10c929b09948b586ccc1",
		"prefix-affinity-astra/report":          "e9c6bb156850671e58cf1d44cdd5b67935811ece0f4b3d4a98e0ad0a99b01ce4",
		"prefix-affinity-astra/classes.tsv":     "f15a5503affdf374924366efc697d6d3a132e18cef8c2c7bfcb96eaa7d708c05",
		"prefix-affinity-astra/replicas.tsv":    "3465fc4be3fc852469593c8f7cd311020c59d51a5f0cb53b0b9828b1d8856321",
		"prefix-affinity-astra/fleet.tsv":       "e4b368eaad3a6df17ed0887e8ac335e0e90bd35273a9a391acbb46cc3c091477",
		"prefix-affinity-astra/requests.tsv":    "7398f9f40ca66e5fc50cb6a352cac0f2256e1f2db049c6fdee8c742f973870f5",
		"prefix-affinity-roofline/report":       "2e1d9c36c9b50343a2ec62d92001257aa7436b9e9e5ea0c21d00f9ad1109fb54",
		"prefix-affinity-roofline/classes.tsv":  "57906279f62bdabe24b5319684b416e6922c230bf9a0552b7a29ac618fd795eb",
		"prefix-affinity-roofline/replicas.tsv": "d9302822ae6c7473e1cf8e81cdd029ba459ad9b90b4644781960c740893fda40",
		"prefix-affinity-roofline/fleet.tsv":    "3a23a59ec32fecb4fdbd904913bf25a0be4ffa20e2cff114f61dc351a4ab85a1",
		"prefix-affinity-roofline/requests.tsv": "67ba2936b4abbfddb920bfa1679e696e5a3aee797cbf643529c4211e718142cd",
		"trace":                                 "5aa77a6c2d583f64bc2ca6a953830d238da84117bf002526390de7a00a7e768c",
	}

	dir := t.TempDir()
	got := map[string]string{}
	var keys []string
	pin := func(key string, b []byte) {
		got[key] = digest(b)
		keys = append(keys, key)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var firstTrace []byte
	for _, router := range []string{"round-robin", "least-loaded", "prefix-affinity"} {
		for _, backend := range []string{"astra", "roofline"} {
			tag := router + "-" + backend
			trace := filepath.Join(dir, tag+".trace")
			gen, rep := filepath.Join(dir, tag+"-gen"), filepath.Join(dir, tag+"-rep")
			policy := []string{"-router", router, "-perf-model", backend}
			genArgs := slices.Concat(replayCommon, replaySession, policy, []string{"-record-trace", trace, "-output", gen})
			repArgs := slices.Concat(replayCommon, policy, []string{"-replay", trace, "-output", rep})
			genOut, _, err := runCLI(genArgs...)
			if err != nil {
				t.Fatalf("%s record: %v", tag, err)
			}
			repOut, _, err := runCLI(repArgs...)
			if err != nil {
				t.Fatalf("%s replay: %v", tag, err)
			}
			if report(genOut) != report(repOut) {
				t.Errorf("%s: replay report differs\n--- generate\n%s--- replay\n%s", tag, report(genOut), report(repOut))
			}
			pin(tag+"/report", []byte(report(genOut)))
			for _, table := range []string{"classes", "replicas", "fleet", "requests"} {
				g, r := read(gen+"-"+table+".tsv"), read(rep+"-"+table+".tsv")
				if !bytes.Equal(g, r) {
					t.Errorf("%s: replay %s.tsv differs from the generating run's", tag, table)
				}
				pin(tag+"/"+table+".tsv", g)
			}
			// Router and backend do not shape arrivals, so every
			// recording of the same generator settings is identical.
			if b := read(trace); firstTrace == nil {
				firstTrace = b
				pin("trace", b)
			} else if !bytes.Equal(b, firstTrace) {
				t.Errorf("%s: recorded trace differs from the first recording", tag)
			}
		}
	}

	if os.Getenv("GOLDEN_PRINT") != "" {
		for _, key := range keys {
			t.Logf("golden: %q: %q,", key, got[key])
		}
		return
	}
	for _, key := range keys {
		if want, ok := goldens[key]; !ok {
			t.Errorf("no golden pinned for %s; run with GOLDEN_PRINT=1", key)
		} else if got[key] != want {
			t.Errorf("%s drifted from the pinned golden\n got %s\nwant %s", key, got[key], want)
		}
	}
}

// TestListPolicies pins -list-policies: the registry-backed rows, then
// one row per choice of every other enum-valued flag.
func TestListPolicies(t *testing.T) {
	out, _, err := runCLI("-list-policies")
	if err != nil {
		t.Fatal(err)
	}
	want := `router	affinity
router	least-loaded
router	prefix-affinity
router	round-robin
admission	all
admission	queue-cap
admission	token-budget
autoscaler	queue-depth
autoscaler	scheduled
autoscaler	slo-target
scheduling	orca
scheduling	static
scheduling	chunked
perf-model	astra
perf-model	roofline
prefix-cache	off
prefix-cache	gpu
prefix-cache	tiered
kv-manage	vllm
kv-manage	maxlen
parallel	tensor
parallel	pipeline
parallel	hybrid
pim-type	none
pim-type	local
pim-type	pool
trace-detail	decisions
trace-detail	spans
trace-detail	full
`
	if out != want {
		t.Errorf("-list-policies printed\n%s\nwant\n%s", out, want)
	}
}

// TestEnumFlagHelp: each enum-valued flag's help lists the choices its
// enum accepts.
func TestEnumFlagHelp(t *testing.T) {
	_, stderr, err := runCLI("-h")
	if err != nil {
		t.Fatalf("-h: %v", err)
	}
	for _, help := range []string{
		"performance model: astra|roofline",
		"scheduling policy: orca|static|chunked",
		"shared-prefix KV caching: off|gpu|tiered",
		"parallelism: tensor|pipeline|hybrid",
		"KV cache management: vllm|maxlen",
		"PIM usage: none|local|pool",
		"cluster routing policy: round-robin|least-loaded|affinity|prefix-affinity",
		"cluster admission policy: all|queue-cap|token-budget",
		"fleet autoscaling policy: none|queue-depth|slo-target|scheduled",
		"telemetry capture level: decisions|spans|full",
	} {
		if !strings.Contains(stderr, help) {
			t.Errorf("-h lacks %q", help)
		}
	}
}

// TestFleetFlags: -fleet without -replicas derives the replica count
// from the fleet (Replicas 0); an explicit -replicas is kept for
// Validate to check against the fleet total.
func TestFleetFlags(t *testing.T) {
	for _, tc := range []struct {
		args              []string
		replicas, entries int
	}{
		{[]string{"-fleet", "2xgpt2,1xgpt2@a100:roofline"}, 0, 2},
		{[]string{"-fleet", "2xgpt2,1xgpt2@a100:roofline", "-replicas", "3"}, 3, 2},
		{[]string{"-replicas", "4", "-router", "least"}, 4, 0},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var sc llmservingsim.ClusterScenario
		var ff fleetFlags
		ff.register(fs, &sc)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if err := ff.apply(fs, &sc); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if sc.Replicas != tc.replicas || len(sc.Fleet) != tc.entries {
			t.Errorf("%v: Replicas %d, %d fleet entries; want %d, %d", tc.args, sc.Replicas, len(sc.Fleet), tc.replicas, tc.entries)
		}
	}
	// A -replicas that disagrees with the fleet total fails the run.
	if _, _, err := runCLI("-fleet", "2xgpt2:roofline", "-replicas", "3", "-synth", "sharegpt", "-synth-n", "4"); err == nil {
		t.Error("-replicas 3 with a 2-replica fleet must fail")
	}
}

// TestWorkloadFlagErrors: flag combinations without the traffic they
// shape are errors returned from run, not exits.
func TestWorkloadFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sessions", "4:8:0.6:1024", "-synth", "sharegpt"}, "-sessions structures -population traffic; give -population too"},
		{[]string{"-population", "40:zipf:1.1", "-synth", "sharegpt"}, "-population apportions clients over -classes traffic; give -classes too"},
		{[]string{"-stream", "-synth", "sharegpt"}, "-stream requires -classes traffic (the generator is the stream)"},
		{nil, "provide -dataset FILE, -classes SPEC, -population SPEC, -replay FILE, or -synth sharegpt|alpaca"},
	} {
		if _, _, err := runCLI(tc.args...); err == nil || err.Error() != tc.want {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
	var sf sessionFlags
	if _, sessions, err := sf.build(false); err != nil || sessions != llmservingsim.DefaultSessionSpec() {
		t.Errorf("no session flags: %v, %v", sessions, err)
	}
}

// TestBadEnumFlag: an unknown enum value is a parse error returned from
// run, reported on stderr with the enum's choices.
func TestBadEnumFlag(t *testing.T) {
	stdout, stderr, err := runCLI("-parallel", "bogus")
	if err == nil || !errors.As(err, new(usageError)) {
		t.Fatalf("error %v, want a usage error", err)
	}
	if want := `unknown parallelism "bogus" (want tensor|pipeline|hybrid)`; !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr)
	}
	if stdout != "" {
		t.Errorf("stdout not empty: %q", stdout)
	}
}

// TestSingleInstanceRun: without cluster flags run takes the
// single-instance path and writes its two TSVs and the telemetry.
func TestSingleInstanceRun(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	stdout, _, err := runCLI("-model", "gpt2", "-npu-num", "2", "-perf-model", "roofline",
		"-synth", "sharegpt", "-synth-n", "8", "-output", prefix, "-decisions-out", prefix+"-decisions.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout, "model            gpt2\n") {
		t.Errorf("report:\n%s", stdout)
	}
	for _, suffix := range []string{"-throughput.tsv", "-simulation-time.tsv", "-decisions.tsv"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Error(err)
		}
	}
	if _, _, err := runCLI("-network", filepath.Join(t.TempDir(), "missing.json"), "-synth", "sharegpt"); err == nil {
		t.Error("a missing -network file must fail")
	}
}
