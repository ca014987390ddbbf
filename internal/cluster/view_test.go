package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// rebuildRoutable is the routing-view oracle: the full rebuild the
// cluster ran on every routing decision before it kept incremental
// views. It reads the state of every active replica of the given role
// fresh, in slot order.
func rebuildRoutable(c *Cluster, cacheKey string, role Role) []ReplicaState {
	var states []ReplicaState
	for i, rep := range c.replicas {
		if rep.state != stateActive || rep.role != role {
			continue
		}
		s := ReplicaState{
			Index:          i,
			QueuedTokens:   rep.sim.QueuedTokens(),
			QueuedRequests: rep.sim.QueuedRequests(),
			Clock:          rep.sim.Clock(),
		}
		if cacheKey != "" {
			s.PrefixTokens = rep.sim.PrefixCachedTokens(cacheKey)
			if c.cfg.Obs != nil {
				s.DevicePrefixTokens = rep.sim.DevicePrefixCachedTokens(cacheKey)
			}
		}
		states = append(states, s)
	}
	return states
}

// viewChecker compares every slice the routers and the admission policy
// of one run are offered with rebuildRoutable, and tallies what the
// run exercised so a scenario can prove it reached the paths it names.
type viewChecker struct {
	t *testing.T
	c *Cluster

	calls        int
	prefixSeen   bool // an offered state carried cached-prefix depth
	devicePrefix bool // ... or device-resident prefix depth
	// placed is each request's last slot per role; moved counts
	// re-routes within a role, by the lifecycle state of the slot the
	// request left (failed: requeue, draining: backlog migration).
	placed [3]map[int]int
	moved  map[lifecycle]int
}

func newViewChecker(t *testing.T) *viewChecker {
	v := &viewChecker{t: t, moved: map[lifecycle]int{}}
	for r := range v.placed {
		v.placed[r] = map[int]int{}
	}
	return v
}

func (v *viewChecker) check(who string, req workload.Request, role Role, states []ReplicaState) {
	v.t.Helper()
	v.calls++
	want := rebuildRoutable(v.c, req.CacheKey(), role)
	if len(states) != len(want) {
		v.t.Fatalf("%s, call %d (request %d, %s view): offered %d replicas, rebuild has %d",
			who, v.calls, req.ID, role, len(states), len(want))
	}
	for i := range want {
		if states[i] != want[i] {
			v.t.Fatalf("%s, call %d (request %d, %s view): position %d offered %+v, rebuild reads %+v",
				who, v.calls, req.ID, role, i, states[i], want[i])
		}
		v.prefixSeen = v.prefixSeen || states[i].PrefixTokens > 0
		v.devicePrefix = v.devicePrefix || states[i].DevicePrefixTokens > 0
	}
}

type checkedRouter struct {
	Router
	v    *viewChecker
	role Role
}

func (r checkedRouter) Route(req workload.Request, states []ReplicaState) int {
	r.v.check("router "+r.Name(), req, r.role, states)
	idx := r.Router.Route(req, states)
	if prev, ok := r.v.placed[r.role][req.ID]; ok {
		r.v.moved[r.v.c.replicas[prev].state]++
	}
	r.v.placed[r.role][req.ID] = states[idx].Index
	return idx
}

type checkedAdmission struct {
	Admission
	v    *viewChecker
	role Role
}

func (a checkedAdmission) Admit(req workload.Request, states []ReplicaState) bool {
	a.v.check("admission "+a.Name(), req, a.role, states)
	return a.Admission.Admit(req, states)
}

// viewReplicaFactory builds contract replicas with 200 MiB per NPU, so
// saturated replicas queue and page. prefix selects the prefix cache
// (tiered gets a 64 MiB host tier); rec, when non-nil, is attached to
// every replica.
func viewReplicaFactory(t testing.TB, prefix kvcache.PrefixMode, rec *obs.Recorder) func(int, Role) (*core.Simulator, error) {
	return rooflineReplicaFactory(t, func(o *core.Options) {
		o.NPU.MemoryBytes = 200 << 20
		o.KVPrefix = prefix
		if prefix == kvcache.PrefixTiered {
			o.KVHostBytes = 64 << 20
		}
		o.Obs = rec
	})
}

// TestRoutingViewMatchesRebuild checks the incremental routing views
// against a full rebuild at every routing and admission decision: the
// slice each policy is offered must equal, field by field, what reading
// every active replica of the role fresh returns. The scenarios cover
// every way a view goes stale: replicas stepping and taking requests,
// cached prefixes changing under a tiered cache, pools scaling with a
// cold start, failures that requeue or reject, a drain that migrates a
// backlog, and telemetry's device-prefix probes.
func TestRoutingViewMatchesRebuild(t *testing.T) {
	sessionClasses := []workload.Class{
		{Name: "chat", Dist: workload.Fixed(192, 96), Rate: 400,
			TTFT: 2 * simtime.Second, TPOT: 250 * simtime.Millisecond, PrefixLen: 128},
		{Name: "api", Dist: workload.Fixed(96, 48), Rate: 600,
			TTFT: 120 * simtime.Millisecond, TPOT: 2 * simtime.Millisecond, PrefixLen: 64},
	}
	// heavyClasses saturates even 64 replicas: the scale mix at 32x rate.
	heavyClasses := scaleClasses()
	for i := range heavyClasses {
		heavyClasses[i].Rate *= 32
	}
	// Tight SLOs keep attainment low, so the slo-target scalers grow
	// both pools through their cold start.
	sloClasses := scaleClasses()
	for i := range sloClasses {
		sloClasses[i].Rate *= 8
		sloClasses[i].TTFT = 20 * simtime.Millisecond
		sloClasses[i].TPOT = simtime.Millisecond
	}
	scaleTraceOf := func(classes []workload.Class, n int) func(t *testing.T) []workload.Request {
		return func(t *testing.T) []workload.Request {
			reqs, err := workload.MultiClassTrace(classes, n, workload.Ramp{}, 42)
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		}
	}
	mustAdmission := func(t *testing.T, name string, limit int64) Admission {
		a, err := NewAdmission(name, limit)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	mustScaler := func(t *testing.T) Autoscaler {
		s, err := NewAutoscaler(ScaleSLOTarget, AutoscalerConfig{AttainTarget: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	second := func(s float64) simtime.Time { return simtime.Time(s * float64(simtime.Second)) }

	cases := []struct {
		name   string
		config func(t *testing.T) Config
		trace  func(t *testing.T) []workload.Request
		check  func(t *testing.T, v *viewChecker, r *Report)
	}{{
		name: "least-loaded/queue-cap/64",
		config: func(t *testing.T) Config {
			return Config{
				Replicas:   64,
				NewReplica: viewReplicaFactory(t, kvcache.PrefixOff, nil),
				Router:     mustRouter(t, RouterLeastLoad),
				Admission:  mustAdmission(t, AdmitQueueCap, 2),
				Classes:    scaleClasses(),
			}
		},
		trace: scaleTraceOf(heavyClasses, 6000),
		check: func(t *testing.T, v *viewChecker, r *Report) {
			if r.Rejected == 0 {
				t.Fatal("queue-cap never rejected: the fleet never saturated")
			}
		},
	}, {
		name: "prefix-affinity/sessions/tiered",
		config: func(t *testing.T) Config {
			return Config{
				Replicas:   4,
				NewReplica: viewReplicaFactory(t, kvcache.PrefixTiered, nil),
				Router:     mustRouter(t, RouterPrefixAffinity),
				Classes:    sessionClasses,
			}
		},
		trace: func(t *testing.T) []workload.Request {
			pop := workload.Population{
				Clients: 64, RateDist: "zipf", Skew: 1.1,
				DiurnalAmp: 0.3, DiurnalPeriod: 60,
				BurstFactor: 3, BurstFrac: 0.1, BurstMean: 5,
			}
			sess := workload.SessionSpec{MeanTurns: 4, ThinkMean: 0.2, ThinkSigma: 0.6, MaxContext: 384}
			reqs, err := workload.PopulationTrace(sessionClasses, pop, sess, 1500, 20240614)
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		},
		check: func(t *testing.T, v *viewChecker, r *Report) {
			if !v.prefixSeen || r.PrefixHits == 0 || r.PrefixSpillBytes == 0 {
				t.Fatalf("prefix depth offered %v, hits %d, spilled %d B: the tiered cache was not exercised",
					v.prefixSeen, r.PrefixHits, r.PrefixSpillBytes)
			}
		},
	}, {
		name: "disaggregated/slo-target/failures",
		config: func(t *testing.T) Config {
			return Config{
				Replicas:       8,
				Roles:          []Role{RolePrefill, RolePrefill, RolePrefill, RolePrefill, RoleDecode, RoleDecode, RoleDecode, RoleDecode},
				NewReplica:     viewReplicaFactory(t, kvcache.PrefixOff, nil),
				Router:         mustRouter(t, RouterLeastLoad),
				DecodeRouter:   mustRouter(t, RouterLeastLoad),
				Classes:        sloClasses,
				PrefillScaler:  mustScaler(t),
				DecodeScaler:   mustScaler(t),
				ScaleTick:      100 * simtime.Millisecond,
				ProvisionDelay: 150 * simtime.Millisecond,
				PrefillMax:     6,
				DecodeMax:      6,
				Events: []workload.FleetEvent{
					{Time: second(0.2), Kind: workload.EventFail, Replica: 0},
					{Time: second(0.35), Kind: workload.EventFail, Replica: 5, Reject: true},
					{Time: second(0.5), Kind: workload.EventDrain, Replica: 1},
					{Time: second(0.65), Kind: workload.EventDrain, Replica: 6},
				},
			}
		},
		trace: scaleTraceOf(sloClasses, 6000),
		check: func(t *testing.T, v *viewChecker, r *Report) {
			if v.moved[stateFailed] == 0 || v.moved[stateDraining] == 0 {
				t.Fatalf("re-routes off failed slots %d, off draining slots %d: want both (requeued %d, timeline %+v)",
					v.moved[stateFailed], v.moved[stateDraining], r.Requeued, r.FleetTimeline)
			}
			if r.Rejected == 0 || r.HandoffCount == 0 {
				t.Fatalf("rejected %d, handoffs %d: want both", r.Rejected, r.HandoffCount)
			}
			cold := false
			for _, p := range r.FleetTimeline {
				cold = cold || p.Provisioning > 0
			}
			if !cold {
				t.Fatalf("no pool ever provisioned a replica: %+v", r.FleetTimeline)
			}
		},
	}, {
		name: "spans-telemetry/prefix",
		config: func(t *testing.T) Config {
			rec := obs.New(obs.Config{Detail: obs.DetailSpans})
			return Config{
				Replicas:   8,
				NewReplica: viewReplicaFactory(t, kvcache.PrefixDevice, rec),
				Router:     mustRouter(t, RouterLeastLoad),
				Classes:    sessionClasses,
				Obs:        rec,
			}
		},
		trace: scaleTraceOf(sessionClasses, 2000),
		check: func(t *testing.T, v *viewChecker, r *Report) {
			if !v.devicePrefix {
				t.Fatal("no offered state carried device-resident prefix depth")
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := newViewChecker(t)
			cfg := tc.config(t)
			stage1 := RoleUnified
			if cfg.Roles != nil {
				stage1 = RolePrefill
			}
			cfg.Router = checkedRouter{Router: cfg.Router, v: v, role: stage1}
			if cfg.DecodeRouter != nil {
				cfg.DecodeRouter = checkedRouter{Router: cfg.DecodeRouter, v: v, role: RoleDecode}
			}
			if cfg.Admission == nil {
				cfg.Admission = admitAll{}
			}
			cfg.Admission = checkedAdmission{Admission: cfg.Admission, v: v, role: stage1}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			v.c = c
			rep, err := c.Run(tc.trace(t))
			if err != nil {
				t.Fatal(err)
			}
			if v.calls == 0 {
				t.Fatal("no routing decision was checked")
			}
			tc.check(t, v, rep)
		})
	}
}
