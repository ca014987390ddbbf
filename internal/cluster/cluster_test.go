package cluster

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// newReplicaFactory builds homogeneous 2-NPU gpt2 tensor-parallel
// replicas, the smallest realistic instance.
func newReplicaFactory(t testing.TB) func(int, Role) (*core.Simulator, error) {
	t.Helper()
	topo, err := network.Build(network.Tensor, 2, 1, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		Model:    model.MustLookup("gpt2"),
		Topo:     topo,
		NPU:      config.DefaultNPU(),
		PIM:      config.DefaultPIM(),
		KVPolicy: kvcache.Paged,
		Reuse:    core.ReuseAll(),
	}
	return func(int, Role) (*core.Simulator, error) { return core.New(opts, nil) }
}

func testClasses() []workload.Class {
	// Clamp lengths so input+output always fits gpt2's 1024 max seq len.
	chat := workload.ShareGPT()
	chat.MaxLen = 500
	api := workload.Alpaca()
	api.MaxLen = 500
	return []workload.Class{
		{Name: "chat", Dist: chat, Rate: 4,
			TTFT: 2 * simtime.Second, TPOT: 200 * simtime.Millisecond},
		{Name: "api", Dist: api, Rate: 8,
			TTFT: simtime.Second, TPOT: 100 * simtime.Millisecond},
	}
}

func testTrace(t testing.TB, n int) []workload.Request {
	t.Helper()
	reqs, err := workload.MultiClassTrace(testClasses(), n, workload.Ramp{}, 17)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func runCluster(t testing.TB, replicas int, router, admission string, limit int64, n int) *Report {
	t.Helper()
	r, err := NewRouter(router)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdmission(admission, limit)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Replicas:   replicas,
		NewReplica: newReplicaFactory(t),
		Router:     r,
		Admission:  a,
		Classes:    testClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(testTrace(t, n))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestClusterCompletesAllRequests(t *testing.T) {
	rep := runCluster(t, 4, RouterRoundRobin, AdmitAll, 0, 40)
	if rep.Requests != 40 || rep.Rejected != 0 || rep.Admitted != 40 {
		t.Fatalf("counts %+v", rep)
	}
	completed := 0
	for _, rec := range rep.Records {
		if rec.Completed == 0 {
			t.Fatalf("request %d never completed: %+v", rec.ID, rec)
		}
		if rec.FirstToken.Before(rec.Arrival) || rec.Completed.Before(rec.FirstToken) {
			t.Fatalf("request %d has non-causal timing: %+v", rec.ID, rec)
		}
		completed++
	}
	if completed != 40 {
		t.Fatalf("completed %d", completed)
	}
	// Round-robin spreads 40 requests evenly over 4 replicas.
	for _, p := range rep.PerReplica {
		if p.Requests != 10 {
			t.Fatalf("round-robin placement skewed: %+v", rep.PerReplica)
		}
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("classes %+v", rep.Classes)
	}
	if rep.SimEnd <= 0 || rep.ThroughputTPS <= 0 {
		t.Fatalf("report rates %+v", rep)
	}
}

// TestClusterDeterministic is the acceptance pin: the same seed must
// produce a bit-identical cluster report across runs.
func TestClusterDeterministic(t *testing.T) {
	for _, router := range Routers() {
		a := runCluster(t, 4, router, AdmitAll, 0, 30)
		b := runCluster(t, 4, router, AdmitAll, 0, 30)

		var bufA, bufB bytes.Buffer
		for _, w := range []func(*Report, *bytes.Buffer){
			func(r *Report, buf *bytes.Buffer) { r.WriteClassTSV(buf) },
			func(r *Report, buf *bytes.Buffer) { r.WriteRequestsTSV(buf) },
			func(r *Report, buf *bytes.Buffer) { r.WriteReplicaTSV(buf) },
		} {
			bufA.Reset()
			bufB.Reset()
			w(a, &bufA)
			w(b, &bufB)
			if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
				t.Fatalf("router %s: same seed produced different reports:\n%s\nvs\n%s",
					router, bufA.String(), bufB.String())
			}
		}
	}
}

func TestLeastLoadedBalancesTokens(t *testing.T) {
	rep := runCluster(t, 4, RouterLeastLoad, AdmitAll, 0, 60)
	if rep.Rejected != 0 {
		t.Fatalf("rejected %d", rep.Rejected)
	}
	// Every replica must receive work (join-shortest-queue cannot
	// starve an instance under sustained load).
	for _, p := range rep.PerReplica {
		if p.Requests == 0 {
			t.Fatalf("replica %d starved: %+v", p.Index, rep.PerReplica)
		}
	}
}

func TestAffinityKeepsClassesTogether(t *testing.T) {
	rep := runCluster(t, 4, RouterAffinity, AdmitAll, 0, 40)
	replicaOf := map[string]int{}
	for _, rec := range rep.Records {
		if prev, ok := replicaOf[rec.Class]; ok && prev != rec.Replica {
			t.Fatalf("class %s split across replicas %d and %d", rec.Class, prev, rec.Replica)
		}
		replicaOf[rec.Class] = rec.Replica
	}
}

func TestQueueCapRejectsUnderOverload(t *testing.T) {
	// 1-request queues over 2 replicas with a burst of arrivals: most
	// must be rejected, and rejections must be recorded.
	rep := runCluster(t, 2, RouterLeastLoad, AdmitQueueCap, 1, 30)
	if rep.Rejected == 0 {
		t.Fatal("queue-cap=1 under burst load must reject")
	}
	if rep.Admitted+rep.Rejected != rep.Requests {
		t.Fatalf("counts do not add up: %+v", rep)
	}
	for _, rec := range rep.Records {
		if rec.Rejected && rec.Replica != -1 {
			t.Fatalf("rejected request has a replica: %+v", rec)
		}
	}
	// Unbounded admission on the same trace rejects nothing.
	if all := runCluster(t, 2, RouterLeastLoad, AdmitAll, 0, 30); all.Rejected != 0 {
		t.Fatal("admit-all must not reject")
	}
}

func TestTokenBudgetRejects(t *testing.T) {
	rep := runCluster(t, 2, RouterLeastLoad, AdmitTokenBudget, 600, 30)
	if rep.Rejected == 0 {
		t.Fatal("tight token budget under burst load must reject")
	}
}

func TestSLOAccounting(t *testing.T) {
	rep := runCluster(t, 4, RouterLeastLoad, AdmitAll, 0, 40)
	for _, cs := range rep.Classes {
		if cs.SLO.TTFT == 0 {
			t.Fatalf("class %s lost its SLO", cs.Class)
		}
		if cs.SLOAttained > cs.Completed {
			t.Fatalf("attained > completed: %+v", cs)
		}
		if cs.GoodputTPS > cs.ThroughputTPS {
			t.Fatalf("goodput exceeds throughput: %+v", cs)
		}
	}
}

func TestClusterContextCancel(t *testing.T) {
	c, err := New(Config{Replicas: 2, NewReplica: newReplicaFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunContext(ctx, testTrace(t, 10)); err == nil {
		t.Fatal("cancelled context must abort the run")
	}
}

// requireFieldError checks that Validate and New both reject cfg with
// a *FieldError naming the same real Config field, which it returns.
func requireFieldError(t *testing.T, name string, cfg Config) string {
	t.Helper()
	verr := cfg.Validate()
	var fe *FieldError
	if !errors.As(verr, &fe) {
		t.Fatalf("%s: Validate returned %T %v, want a *FieldError", name, verr, verr)
	}
	if _, ok := reflect.TypeOf(Config{}).FieldByName(fe.Field); !ok {
		t.Fatalf("%s: Field %q names no Config field (%v)", name, fe.Field, verr)
	}
	_, err := New(cfg)
	var ne *FieldError
	if !errors.As(err, &ne) || ne.Field != fe.Field {
		t.Fatalf("%s: Validate rejected %s (%v), but New returned %T %v", name, fe.Field, verr, err, err)
	}
	return fe.Field
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Replicas: 2}); err == nil {
		t.Fatal("nil factory must fail")
	}
	scaler := func() Autoscaler {
		a, err := NewAutoscaler(ScaleQueueDepth, AutoscalerConfig{QueueTarget: 4})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	pd := []Role{RolePrefill, RoleDecode}
	cases := []struct {
		name, field string
		mutate      func(*Config)
	}{
		{"zero replicas", "Replicas", func(c *Config) { c.Replicas = 0 }},
		{"roles per replica", "Roles", func(c *Config) { c.Roles = []Role{RolePrefill} }},
		{"mixed roles", "Roles", func(c *Config) { c.Replicas = 3; c.Roles = []Role{RolePrefill, RoleDecode, RoleUnified} }},
		{"empty decode pool", "Roles", func(c *Config) { c.Roles = []Role{RolePrefill, RolePrefill} }},
		{"unified scaler on pools", "Autoscaler", func(c *Config) { c.Roles = pd; c.Autoscaler = scaler(); c.ScaleTick = simtime.Second }},
		{"scale event on pools", "Events", func(c *Config) {
			c.Roles = pd
			c.Events = []workload.FleetEvent{{Time: simtime.Time(simtime.Second), Kind: workload.EventScale, Replicas: 3}}
		}},
		{"half of the pool scalers", "PrefillScaler", func(c *Config) { c.Roles = pd; c.PrefillScaler = scaler(); c.ScaleTick = simtime.Second }},
		{"pool scalers on a unified fleet", "PrefillScaler", func(c *Config) {
			c.PrefillScaler, c.DecodeScaler, c.ScaleTick = scaler(), scaler(), simtime.Second
		}},
		{"pool scalers without a tick", "ScaleTick", func(c *Config) { c.Roles = pd; c.PrefillScaler, c.DecodeScaler = scaler(), scaler() }},
		{"autoscaler without a tick", "ScaleTick", func(c *Config) { c.Autoscaler = scaler() }},
		{"per-pool bounds on a unified fleet", "DecodeMax", func(c *Config) { c.DecodeMax = 2 }},
		{"pool max below min", "PrefillMax", func(c *Config) { c.Roles = pd; c.PrefillMin = 3; c.PrefillMax = 2 }},
		{"negative pool min", "DecodeMin", func(c *Config) { c.Roles = pd; c.DecodeMin = -1 }},
		{"initial pool above max", "DecodeMax", func(c *Config) {
			c.Replicas = 3
			c.Roles = []Role{RolePrefill, RoleDecode, RoleDecode}
			c.DecodeMax = 1
		}},
		{"negative min", "MinReplicas", func(c *Config) { c.MinReplicas = -1 }},
		{"negative max", "MaxReplicas", func(c *Config) { c.MaxReplicas = -1 }},
		{"max below min", "MaxReplicas", func(c *Config) { c.MinReplicas = 3; c.MaxReplicas = 2 }},
		{"initial above max", "MaxReplicas", func(c *Config) { c.MaxReplicas = 1 }},
		{"negative provision delay", "ProvisionDelay", func(c *Config) { c.ProvisionDelay = -1 }},
		{"invalid fleet event", "Events", func(c *Config) { c.Events = []workload.FleetEvent{{Kind: workload.EventDrain, Replica: -1}} }},
	}
	for _, tc := range cases {
		cfg := Config{Replicas: 2, NewReplica: newReplicaFactory(t)}
		tc.mutate(&cfg)
		if got := requireFieldError(t, tc.name, cfg); got != tc.field {
			t.Errorf("%s: rejected field %s, want %s", tc.name, got, tc.field)
		}
	}
	if _, err := NewRouter("bogus"); err == nil {
		t.Fatal("unknown router must fail")
	}
	if _, err := NewAdmission("bogus", 0); err == nil {
		t.Fatal("unknown admission must fail")
	}
	if _, err := NewAdmission(AdmitQueueCap, 0); err == nil {
		t.Fatal("queue-cap without a limit must fail")
	}
	if _, err := NewAdmission(AdmitTokenBudget, -1); err == nil {
		t.Fatal("token-budget without a limit must fail")
	}
}

func TestRegistries(t *testing.T) {
	if got := Routers(); len(got) < 3 {
		t.Fatalf("routers %v", got)
	}
	if got := Admissions(); len(got) < 3 {
		t.Fatalf("admissions %v", got)
	}
}
