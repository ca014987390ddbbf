package llmservingsim

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// parser adapts a ParseX function to one signature and checks on every
// call that the type's flag.Value Set agrees with it.
func parser[E interface {
	comparable
	fmt.Stringer
}, P interface {
	*E
	flag.Value
}](t *testing.T, parse func(string) (E, error)) func(string) (fmt.Stringer, error) {
	return func(s string) (fmt.Stringer, error) {
		t.Helper()
		v, err := parse(s)
		var set E
		if serr := P(&set).Set(s); set != v || (serr == nil) != (err == nil) {
			t.Errorf("%T Set(%q) = %v, %v; Parse = %v, %v", set, s, set, serr, v, err)
		}
		return v, err
	}
}

// TestEnumRoundTrips: every spelling each enum accepts parses to its
// value (through Parse and flag.Value Set alike), every value prints
// its canonical spelling and parses back, "" selects the default, and
// an unknown spelling is rejected with the enum's noun and want-list.
// The spellings are written out by hand, so dropping an alias fails.
func TestEnumRoundTrips(t *testing.T) {
	parse := map[string]func(string) (fmt.Stringer, error){
		"parallel":     parser(t, ParseParallelism),
		"scheduling":   parser(t, ParseSchedPolicy),
		"kv-manage":    parser(t, ParseKVPolicy),
		"prefix-cache": parser(t, ParsePrefixCacheMode),
		"pim-type":     parser(t, ParsePIMMode),
		"perf-model":   parser(t, ParsePerfModel),
		"router":       parser(t, ParseRouterPolicy),
		"admission":    parser(t, ParseAdmissionPolicy),
		"autoscaler":   parser(t, ParseAutoscalePolicy),
		"role":         parser(t, ParseReplicaRole),
		"trace-detail": parser(t, ParseTraceDetail),
		// Fleet event kinds are parsed by the -fleet-events grammar.
		"fleet-event": func(s string) (fmt.Stringer, error) {
			evs, err := ParseFleetEvents(s + "@1:1")
			if err != nil {
				return nil, err
			}
			return evs[0].Kind, nil
		},
	}
	cases := []struct {
		kind, in string
		want     fmt.Stringer
	}{
		{"parallel", "", ParallelismHybrid},
		{"parallel", "hybrid", ParallelismHybrid},
		{"parallel", "tensor", ParallelismTensor},
		{"parallel", "pipeline", ParallelismPipeline},

		{"scheduling", "", SchedOrca},
		{"scheduling", "orca", SchedOrca},
		{"scheduling", "iteration", SchedOrca},
		{"scheduling", "static", SchedStatic},
		{"scheduling", "batch", SchedStatic},
		{"scheduling", "chunked", SchedChunked},
		{"scheduling", "chunk", SchedChunked},

		{"kv-manage", "", KVPaged},
		{"kv-manage", "vllm", KVPaged},
		{"kv-manage", "paged", KVPaged},
		{"kv-manage", "maxlen", KVMaxLen},
		{"kv-manage", "max", KVMaxLen},

		{"prefix-cache", "", PrefixCacheOff},
		{"prefix-cache", "off", PrefixCacheOff},
		{"prefix-cache", "gpu", PrefixCacheGPU},
		{"prefix-cache", "device", PrefixCacheGPU},
		{"prefix-cache", "tiered", PrefixCacheTiered},
		{"prefix-cache", "cpu", PrefixCacheTiered},

		{"pim-type", "", PIMNone},
		{"pim-type", "none", PIMNone},
		{"pim-type", "local", PIMLocal},
		{"pim-type", "pool", PIMPool},

		{"perf-model", "", PerfModelAstra},
		{"perf-model", "astra", PerfModelAstra},
		{"perf-model", "roofline", PerfModelRoofline},
		{"perf-model", "analytical", PerfModelRoofline},

		{"router", "", RouterRoundRobin},
		{"router", "round-robin", RouterRoundRobin},
		{"router", "rr", RouterRoundRobin},
		{"router", "least-loaded", RouterLeastLoaded},
		{"router", "least", RouterLeastLoaded},
		{"router", "affinity", RouterAffinity},
		{"router", "session", RouterAffinity},
		{"router", "prefix-affinity", RouterPrefixAffinity},
		{"router", "prefix", RouterPrefixAffinity},

		{"admission", "", AdmitAll},
		{"admission", "all", AdmitAll},
		{"admission", "unbounded", AdmitAll},
		{"admission", "queue-cap", AdmitQueueCap},
		{"admission", "queue", AdmitQueueCap},
		{"admission", "token-budget", AdmitTokenBudget},
		{"admission", "tokens", AdmitTokenBudget},

		{"autoscaler", "", ScaleNone},
		{"autoscaler", "none", ScaleNone},
		{"autoscaler", "queue-depth", ScaleQueueDepth},
		{"autoscaler", "queue", ScaleQueueDepth},
		{"autoscaler", "slo-target", ScaleSLO},
		{"autoscaler", "slo", ScaleSLO},
		{"autoscaler", "scheduled", ScaleScheduled},

		{"role", "", RoleUnified},
		{"role", "unified", RoleUnified},
		{"role", "prefill", RolePrefill},
		{"role", "decode", RoleDecode},

		{"trace-detail", "", TraceSpans},
		{"trace-detail", "spans", TraceSpans},
		{"trace-detail", "decisions", TraceDecisions},
		{"trace-detail", "full", TraceFull},

		{"fleet-event", "fail", FleetFail},
		{"fleet-event", "scale", FleetScale},
		{"fleet-event", "drain", FleetDrain},
	}
	for _, tc := range cases {
		got, err := parse[tc.kind](tc.in)
		if err != nil || got != tc.want {
			t.Errorf("%s %q: got %v, %v; want %v", tc.kind, tc.in, got, err, tc.want)
			continue
		}
		if back, err := parse[tc.kind](got.String()); err != nil || back != got {
			t.Errorf("%s %v: String %q parses back to %v, %v", tc.kind, got, got.String(), back, err)
		}
	}

	// Unknown spellings name the enum and list the canonical choices.
	bogus := map[string]string{
		"parallel":     "parallelism %q (want tensor|pipeline|hybrid)",
		"scheduling":   "scheduling policy %q (want orca|static|chunked)",
		"kv-manage":    "kv policy %q (want vllm|maxlen)",
		"prefix-cache": "prefix cache mode %q (want off|gpu|tiered)",
		"pim-type":     "pim mode %q (want none|local|pool)",
		"perf-model":   "perf model %q (want astra|roofline)",
		"router":       "router %q (want round-robin|least-loaded|affinity|prefix-affinity)",
		"admission":    "admission policy %q (want all|queue-cap|token-budget)",
		"autoscaler":   "autoscaler %q (want none|queue-depth|slo-target|scheduled)",
		"role":         "replica role %q (want unified|prefill|decode)",
		"trace-detail": "trace detail %q (want decisions|spans|full)",
	}
	for kind, msg := range bogus {
		want := "llmservingsim: unknown " + fmt.Sprintf(msg, "bogus")
		if _, err := parse[kind]("bogus"); err == nil || err.Error() != want {
			t.Errorf("%s bogus: error %v, want %q", kind, err, want)
		}
		// Every canonical choice the CLI advertises is in the cases.
		for _, name := range PolicyChoices(kind) {
			found := false
			for _, tc := range cases {
				found = found || (tc.kind == kind && tc.in == name)
			}
			if !found {
				t.Errorf("%s choice %q has no case", kind, name)
			}
		}
	}
	if _, err := parse["fleet-event"]("bogus"); err == nil {
		t.Error("bogus fleet event kind accepted")
	}
}

func TestEnumDefaultsAndErrors(t *testing.T) {
	if v, err := ParseParallelism(""); err != nil || v != ParallelismHybrid {
		t.Errorf("empty parallelism: %v, %v", v, err)
	}
	if v, err := ParseSchedPolicy(""); err != nil || v != SchedOrca {
		t.Errorf("empty scheduling: %v, %v", v, err)
	}
	if v, err := ParseKVPolicy(""); err != nil || v != KVPaged {
		t.Errorf("empty kv: %v, %v", v, err)
	}
	if v, err := ParsePIMMode(""); err != nil || v != PIMNone {
		t.Errorf("empty pim: %v, %v", v, err)
	}
	if _, err := ParseParallelism("nope"); err == nil {
		t.Error("bad parallelism accepted")
	}
	if _, err := ParseSchedPolicy("nope"); err == nil {
		t.Error("bad scheduling accepted")
	}
	if _, err := ParseKVPolicy("nope"); err == nil {
		t.Error("bad kv accepted")
	}
	if _, err := ParsePIMMode("nope"); err == nil {
		t.Error("bad pim accepted")
	}
}

// TestEnumOutOfRange: an out-of-range value prints as Type(n), fails
// valid, and converts to the zero value's internal value.
func TestEnumOutOfRange(t *testing.T) {
	const bad = 99
	for _, tc := range []struct {
		v     fmt.Stringer
		valid bool
		want  string
	}{
		{Parallelism(bad), Parallelism(bad).valid(), "Parallelism(99)"},
		{SchedPolicy(bad), SchedPolicy(bad).valid(), "SchedPolicy(99)"},
		{KVPolicy(bad), KVPolicy(bad).valid(), "KVPolicy(99)"},
		{PrefixCacheMode(bad), PrefixCacheMode(bad).valid(), "PrefixCacheMode(99)"},
		{PIMMode(-1), PIMMode(-1).valid(), "PIMMode(-1)"},
		{PerfModel(bad), PerfModel(bad).valid(), "PerfModel(99)"},
		{RouterPolicy(bad), RouterPolicy(bad).valid(), "RouterPolicy(99)"},
		{AdmissionPolicy(bad), AdmissionPolicy(bad).valid(), "AdmissionPolicy(99)"},
		{AutoscalePolicy(bad), AutoscalePolicy(bad).valid(), "AutoscalePolicy(99)"},
		{ReplicaRole(bad), ReplicaRole(bad).valid(), "ReplicaRole(99)"},
		{TraceDetail(bad), false, "TraceDetail(99)"},
		{FleetEventKind(bad), false, "FleetEventKind(99)"},
	} {
		if tc.valid || tc.v.String() != tc.want {
			t.Errorf("%s: valid=%v String=%q", tc.want, tc.valid, tc.v.String())
		}
	}
	if Parallelism(bad).internal() != network.Hybrid ||
		SchedPolicy(bad).internal() != sched.Orca ||
		KVPolicy(bad).internal() != kvcache.Paged ||
		PrefixCacheMode(bad).internal() != kvcache.PrefixOff ||
		PIMMode(-1).internal() != core.PIMNone ||
		RouterPolicy(bad).internal() != cluster.RouterRoundRobin ||
		AdmissionPolicy(bad).internal() != cluster.AdmitAll ||
		AutoscalePolicy(bad).internal() != "" ||
		ReplicaRole(bad).internal() != cluster.RoleUnified ||
		TraceDetail(bad).internal() != obs.DetailSpans ||
		FleetEventKind(bad).internal() != workload.EventFail {
		t.Error("an out-of-range value must convert to the zero value's internal value")
	}
	for _, k := range []FleetEventKind{FleetFail, FleetScale, FleetDrain} {
		if got := fleetEventKinds.fromInternal(k.internal()); got != k {
			t.Errorf("fromInternal(%v.internal()) = %v", k, got)
		}
	}
}

// TestEnumMethodsDoNotAllocate: String, valid and internal index the
// table; they sit on per-request paths (TSV rows, validation).
func TestEnumMethodsDoNotAllocate(t *testing.T) {
	r := RouterPrefixAffinity
	allocs := testing.AllocsPerRun(100, func() {
		_ = r.String()
		_ = r.valid()
		_ = r.internal()
		_ = TraceFull.String()
	})
	if allocs != 0 {
		t.Errorf("enum methods allocate %v times per call", allocs)
	}
}

// TestClusterEnumRoundTrips: the cluster policy enums bind to flags
// through flag.Value, and the registry listings are non-empty.
func TestClusterEnumRoundTrips(t *testing.T) {
	var as AutoscalePolicy
	asFS := flag.NewFlagSet("t", flag.ContinueOnError)
	asFS.SetOutput(io.Discard)
	asFS.Var(&as, "autoscaler", "")
	if err := asFS.Parse([]string{"-autoscaler", "slo-target"}); err != nil || as != ScaleSLO {
		t.Errorf("autoscaler flag parse: %v, %v", as, err)
	}
	if Autoscalers() == nil {
		t.Error("autoscaler registry listing must be non-empty")
	}

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var r RouterPolicy
	var a AdmissionPolicy
	fs.Var(&r, "router", "")
	fs.Var(&a, "admission", "")
	if err := fs.Parse([]string{"-router", "least-loaded", "-admission", "token-budget"}); err != nil {
		t.Fatal(err)
	}
	if r != RouterLeastLoaded || a != AdmitTokenBudget {
		t.Errorf("flag parse: %v, %v", r, a)
	}
	if err := fs.Parse([]string{"-router", "bogus"}); err == nil {
		t.Error("bogus router flag must fail")
	}
	// The registry-facing names resolve for every enum value.
	if Routers() == nil || Admissions() == nil {
		t.Error("registry listings must be non-empty")
	}
}

// TestEnumFlagValues: the enums bind to command-line flags via flag.Var.
func TestEnumFlagValues(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var (
		par   Parallelism
		sched SchedPolicy
		kv    KVPolicy
		pim   PIMMode
	)
	fs.Var(&par, "parallel", "")
	fs.Var(&sched, "scheduling", "")
	fs.Var(&kv, "kv-manage", "")
	fs.Var(&pim, "pim-type", "")
	err := fs.Parse([]string{"-parallel", "tensor", "-scheduling", "static", "-kv-manage", "maxlen", "-pim-type", "pool"})
	if err != nil {
		t.Fatal(err)
	}
	if par != ParallelismTensor || sched != SchedStatic || kv != KVMaxLen || pim != PIMPool {
		t.Fatalf("parsed %v %v %v %v", par, sched, kv, pim)
	}
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	fs2.SetOutput(&strings.Builder{})
	fs2.Var(&par, "parallel", "")
	if err := fs2.Parse([]string{"-parallel", "bogus"}); err == nil {
		t.Fatal("bogus flag value accepted")
	}
}

// TestConfigValidate: every constraint yields a *ConfigError naming the
// offending field.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"unknown model", func(c *Config) { c.Model = "nope" }, "Model"},
		{"zero npus", func(c *Config) { c.NPUs = 0 }, "NPUs"},
		{"negative npus", func(c *Config) { c.NPUs = -4 }, "NPUs"},
		{"bad parallelism", func(c *Config) { c.Parallelism = Parallelism(99) }, "Parallelism"},
		{"negative groups", func(c *Config) { c.NPUGroups = -1 }, "NPUGroups"},
		{"indivisible groups", func(c *Config) { c.NPUs = 10; c.NPUGroups = 3 }, "NPUGroups"},
		{"bad scheduling", func(c *Config) { c.Scheduling = SchedPolicy(99) }, "Scheduling"},
		{"bad kv", func(c *Config) { c.KVManage = KVPolicy(99) }, "KVManage"},
		{"bad pim", func(c *Config) { c.PIMType = PIMMode(99) }, "PIMType"},
		{"negative max batch", func(c *Config) { c.MaxBatch = -1 }, "MaxBatch"},
		{"negative batch delay", func(c *Config) { c.BatchDelay = -1 }, "BatchDelay"},
		{"negative page tokens", func(c *Config) { c.KVPageTokens = -16 }, "KVPageTokens"},
		{"negative pim pool", func(c *Config) { c.PIMPoolSize = -2 }, "PIMPoolSize"},
		{"negative sub batches", func(c *Config) { c.SubBatches = -2 }, "SubBatches"},
		{"sub batch without pim", func(c *Config) { c.SubBatches = 2; c.PIMType = PIMNone }, "SubBatches"},
		{"bad link bandwidth", func(c *Config) { c.Link.BandwidthBytes = -5 }, "Link"},
		{"bad npu frequency", func(c *Config) { c.NPU.FrequencyHz = -1 }, "NPU"},
		// A partially filled hardware block must fail loudly instead of
		// being silently replaced by the Table I defaults.
		{"partial npu block", func(c *Config) { c.NPU = config.NPUConfig{MemoryBytes: 8 << 30} }, "NPU"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			ce, ok := AsConfigError(err)
			if !ok {
				t.Fatalf("not a ConfigError: %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("field %q, want %q (%v)", ce.Field, tc.field, err)
			}
			// The constructor surfaces the same typed error.
			if _, nerr := NewFromConfig(cfg, UniformTrace(2, 16, 2)); nerr == nil {
				t.Fatal("constructor accepted invalid config")
			} else if _, ok := AsConfigError(nerr); !ok {
				t.Fatalf("constructor error not typed: %v", nerr)
			}
		})
	}

	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// A minimal config relies on enum zero values being the defaults.
	minimal := Config{Model: "gpt2", NPUs: 4}
	if err := minimal.Validate(); err != nil {
		t.Fatalf("minimal config invalid: %v", err)
	}
	if _, err := NewFromConfig(minimal, UniformTrace(2, 16, 2)); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
}

// TestConfigErrorUnwrap: wrapped causes (the model registry's error)
// survive errors.Is/As chains.
func TestConfigErrorUnwrap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = "nope"
	err := cfg.Validate()
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if ce.Err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("cause not preserved: %+v", ce)
	}
}
