package cluster

import (
	"fmt"
	"math/rand"
	"slices"
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

// viewChecker compares the view the routers and the admission policy
// of one run decide from with rebuildRoutable at every decision, and
// tallies what the run exercised so a scenario can prove it reached
// the paths it names.
type viewChecker struct {
	t *testing.T
	c *Cluster

	calls        int
	prefixSeen   bool // an offered state carried cached-prefix depth
	devicePrefix bool // ... or device-resident prefix depth
	// fastAdmits counts admissions answered from the view's sums
	// (admitFrom); treeRoutes counts routes per role answered from the
	// min tree rather than by the fallback scan, and treeMoved those of
	// them that re-routed a request within its role.
	fastAdmits int
	treeRoutes [3]int
	treeMoved  [3]int
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

// check compares the role's view, whose states are offered to the
// deciding policy, with the rebuild: every state field by field, and
// the running sums. It returns the rebuild.
func (v *viewChecker) check(who string, req workload.Request, role Role, states []ReplicaState) []ReplicaState {
	v.t.Helper()
	v.calls++
	want := rebuildRoutable(v.c, req.CacheKey(), role)
	at := func() string {
		return fmt.Sprintf("%s, call %d (request %d, %s view)", who, v.calls, req.ID, role)
	}
	if len(states) != len(want) {
		v.t.Fatalf("%s: offered %d replicas, rebuild has %d", at(), len(states), len(want))
	}
	var requests int
	var tokens int64
	for i := range want {
		if states[i] != want[i] {
			v.t.Fatalf("%s: position %d offered %+v, rebuild reads %+v", at(), i, states[i], want[i])
		}
		requests += want[i].QueuedRequests
		tokens += want[i].QueuedTokens
		v.prefixSeen = v.prefixSeen || states[i].PrefixTokens > 0
		v.devicePrefix = v.devicePrefix || states[i].DevicePrefixTokens > 0
	}
	rv := &v.c.views[role]
	if rv.queuedRequests != requests || rv.queuedTokens != tokens {
		v.t.Fatalf("%s: view sums %d requests, %d tokens; rebuild sums %d, %d",
			at(), rv.queuedRequests, rv.queuedTokens, requests, tokens)
	}
	return want
}

// place records that req went to states[idx] in role's view, counting
// a re-route within the role by the lifecycle state of the slot it
// left; it reports whether the route was one.
func (v *viewChecker) place(req workload.Request, role Role, states []ReplicaState, idx int) bool {
	prev, moved := v.placed[role][req.ID]
	if moved {
		v.moved[v.c.replicas[prev].state]++
	}
	v.placed[role][req.ID] = states[idx].Index
	return moved
}

// checkedRouter checks the view offered to a router that scans the
// slice; checkedViewRouter adds routeFrom for a router that answers
// from the view's aggregates, so the cluster keeps taking that path.
type checkedRouter struct {
	Router
	v    *viewChecker
	role Role
}

func (r checkedRouter) Route(req workload.Request, states []ReplicaState) int {
	r.v.check("router "+r.Name(), req, r.role, states)
	idx := r.Router.Route(req, states)
	r.v.place(req, r.role, states, idx)
	return idx
}

// checkedViewRouter also requires the pick to equal least-loaded's
// scan of the rebuild and, when the min tree answered, every node of
// the tree to equal a tree built fresh from the rebuild.
type checkedViewRouter struct{ checkedRouter }

func (r checkedViewRouter) routeFrom(req workload.Request, rv *routeView) int {
	want := r.v.check("view router "+r.Name(), req, r.role, rv.states)
	idx := r.Router.(viewRouter).routeFrom(req, rv)
	if scan := (leastLoaded{}).Route(req, want); idx != scan {
		r.v.t.Fatalf("view router %s, request %d (%s view): picks position %d (%d tokens), least-loaded scan of the rebuild picks %d (%d tokens)",
			r.Name(), req.ID, r.role, idx, want[idx].QueuedTokens, scan, want[scan].QueuedTokens)
	}
	moved := r.v.place(req, r.role, rv.states, idx)
	if !rv.stale {
		var fresh minTree
		fresh.build(len(want), func(i int) int64 { return want[i].QueuedTokens })
		if !slices.Equal(rv.tree.node, fresh.node) {
			r.v.t.Fatalf("view router %s, request %d (%s view): min tree %v, a fresh build has %v", r.Name(), req.ID, r.role, rv.tree.node, fresh.node)
		}
		r.v.treeRoutes[r.role]++
		if moved {
			r.v.treeMoved[r.role]++
		}
	}
	return idx
}

// checkRouter wraps r for the checker, keeping its fast path.
func (v *viewChecker) checkRouter(r Router, role Role) Router {
	c := checkedRouter{Router: r, v: v, role: role}
	if _, ok := r.(viewRouter); ok {
		return checkedViewRouter{c}
	}
	return c
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

// checkedViewAdmission also requires the verdict from the view's sums
// to equal the policy's verdict on the rebuilt slice.
type checkedViewAdmission struct{ checkedAdmission }

func (a checkedViewAdmission) admitFrom(req workload.Request, rv *routeView) bool {
	want := a.v.check("view admission "+a.Name(), req, a.role, rv.states)
	ok := a.Admission.(viewAdmission).admitFrom(req, rv)
	if scan := a.Admission.Admit(req, want); ok != scan {
		a.v.t.Fatalf("view admission %s, request %d: admits %v from the sums, %v from the rebuild", a.Name(), req.ID, ok, scan)
	}
	a.v.fastAdmits++
	return ok
}

// checkAdmission wraps a for the checker, keeping its fast path.
func (v *viewChecker) checkAdmission(a Admission, role Role) Admission {
	c := checkedAdmission{Admission: a, v: v, role: role}
	if _, ok := a.(viewAdmission); ok {
		return checkedViewAdmission{c}
	}
	return c
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
// every active replica of the role fresh returns; the view's running
// sums must equal the rebuild's; and a view's min tree must pick what
// least-loaded's scan of the rebuild picks. The wrappers keep the
// built-in policies' view paths, and each scenario requires the
// decisions it names to have taken them. The scenarios cover every way
// a view goes stale: replicas stepping and taking requests, cached
// prefixes changing under a tiered cache, pools scaling with a cold
// start, failures that requeue or reject, a drain that migrates a
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
			if v.fastAdmits == 0 || v.treeRoutes[RoleUnified] == 0 {
				t.Fatalf("%d admissions from the sums, %d routes from the tree: want both", v.fastAdmits, v.treeRoutes[RoleUnified])
			}
		},
	}, {
		name: "least-loaded/token-budget/16",
		config: func(t *testing.T) Config {
			return Config{
				Replicas:   16,
				NewReplica: viewReplicaFactory(t, kvcache.PrefixOff, nil),
				Router:     mustRouter(t, RouterLeastLoad),
				Admission:  mustAdmission(t, AdmitTokenBudget, 40000),
				Classes:    scaleClasses(),
			}
		},
		trace: scaleTraceOf(heavyClasses, 4000),
		check: func(t *testing.T, v *viewChecker, r *Report) {
			if r.Rejected == 0 || r.Rejected == r.Requests {
				t.Fatalf("token-budget rejected %d of %d: want some but not all", r.Rejected, r.Requests)
			}
			if v.fastAdmits == 0 || v.treeRoutes[RoleUnified] == 0 {
				t.Fatalf("%d admissions from the sums, %d routes from the tree: want both", v.fastAdmits, v.treeRoutes[RoleUnified])
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
			if v.treeRoutes[RolePrefill] == 0 || v.treeRoutes[RoleDecode] == 0 || v.treeMoved[RoleDecode] == 0 {
				t.Fatalf("tree routes: %d prefill, %d decode, %d decode re-routes: want all",
					v.treeRoutes[RolePrefill], v.treeRoutes[RoleDecode], v.treeMoved[RoleDecode])
			}
		},
	}, {
		name: "disaggregated/queue-cap/requeues",
		config: func(t *testing.T) Config {
			return Config{
				// Pools of 8 and 16 give the min tree a budget of one and
				// two changes per decision, so requeues, one push apart,
				// are answered from the tree.
				Replicas:     24,
				Roles:        disaggRoles(8, 16),
				NewReplica:   viewReplicaFactory(t, kvcache.PrefixOff, nil),
				Router:       mustRouter(t, RouterLeastLoad),
				DecodeRouter: mustRouter(t, RouterLeastLoad),
				Admission:    mustAdmission(t, AdmitQueueCap, 4),
				Classes:      scaleClasses(),
				Events: []workload.FleetEvent{
					{Time: second(0.03), Kind: workload.EventFail, Replica: 0},
					{Time: second(0.05), Kind: workload.EventFail, Replica: 8},
					{Time: second(0.08), Kind: workload.EventFail, Replica: 12},
				},
			}
		},
		trace: scaleTraceOf(heavyClasses, 3000),
		check: func(t *testing.T, v *viewChecker, r *Report) {
			if v.treeMoved[RolePrefill] == 0 || v.treeMoved[RoleDecode] == 0 {
				t.Fatalf("tree re-routes: %d prefill, %d decode: want both (requeued %d)",
					v.treeMoved[RolePrefill], v.treeMoved[RoleDecode], r.Requeued)
			}
			if v.fastAdmits == 0 || r.Rejected == 0 {
				t.Fatalf("%d admissions from the sums, %d rejected: want both", v.fastAdmits, r.Rejected)
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
			cfg.Router = v.checkRouter(cfg.Router, stage1)
			if cfg.DecodeRouter != nil {
				cfg.DecodeRouter = v.checkRouter(cfg.DecodeRouter, RoleDecode)
			}
			if cfg.Admission == nil {
				cfg.Admission = admitAll{}
			}
			cfg.Admission = v.checkAdmission(cfg.Admission, stage1)
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
			t.Logf("%d decisions checked: %d admissions from the sums, tree routes per role %v (re-routes %v)",
				v.calls, v.fastAdmits, v.treeRoutes, v.treeMoved)
			tc.check(t, v, rep)
		})
	}
}

// TestLoadTreeMatchesScan drives the min tree as a least-loaded load
// tree, keyed by queued tokens, through random decreases, increases,
// unchanged writes and rebuilds over few distinct token counts, so ties
// are common, and requires after every operation that the root is
// least-loaded's scan pick and that every node equals a tree built
// fresh from the same states.
func TestLoadTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tree, fresh minTree
	var states []ReplicaState
	tokens := func(i int) int64 { return states[i].QueuedTokens }
	for trial := 0; trial < 300; trial++ {
		distinct := 1 + rng.Intn(5)
		states = make([]ReplicaState, 1+rng.Intn(40))
		for i := range states {
			states[i].QueuedTokens = int64(rng.Intn(distinct))
		}
		tree.build(len(states), tokens)
		for op := 0; op < 400; op++ {
			kind := "set"
			if rng.Intn(30) == 0 {
				kind = "rebuild"
				states = states[:0]
				for range 1 + rng.Intn(40) {
					states = append(states, ReplicaState{QueuedTokens: int64(rng.Intn(distinct))})
				}
				tree.build(len(states), tokens)
			} else {
				i := rng.Intn(len(states))
				q := states[i].QueuedTokens
				switch rng.Intn(3) {
				case 0:
					q -= int64(rng.Intn(distinct))
				case 1:
					q += int64(rng.Intn(distinct))
				default:
					q = int64(rng.Intn(distinct))
				}
				states[i].QueuedTokens = q
				tree.set(i, q)
			}
			if got, _ := tree.min(); got != (leastLoaded{}).Route(workload.Request{}, states) {
				t.Fatalf("trial %d, op %d (%s) over %d positions: tree picks %d, scan picks %d",
					trial, op, kind, len(states), got, (leastLoaded{}).Route(workload.Request{}, states))
			}
			fresh.build(len(states), tokens)
			for p := 1; p < len(fresh.node); p++ {
				if tree.node[p] != fresh.node[p] {
					t.Fatalf("trial %d, op %d (%s): node %d is %+v, a fresh build has %+v", trial, op, kind, p, tree.node[p], fresh.node[p])
				}
			}
		}
	}
}

// TestViewLeastLoadedMatchesScan drives a least-loaded view's lazy min
// tree through random token changes, in single steps and in bursts past
// the tree's budget, and membership rebuilds, over few distinct token
// counts, and requires every decision to pick what least-loaded's scan
// picks and, when the tree answered, every node to equal a fresh build.
func TestViewLeastLoadedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var fresh minTree
	answered := 0
	for trial := 0; trial < 200; trial++ {
		distinct := 1 + rng.Intn(5)
		v := &routeView{}
		v.setRouter(leastLoaded{})
		rebuild := func() {
			v.states = v.states[:0]
			for range 1 + rng.Intn(100) {
				v.states = append(v.states, ReplicaState{QueuedTokens: int64(rng.Intn(distinct))})
			}
			v.aggregate()
		}
		rebuild()
		for op := 0; op < 300; op++ {
			if rng.Intn(40) == 0 {
				rebuild()
			}
			changes := 1 + rng.Intn(3)
			if rng.Intn(4) == 0 {
				changes = len(v.states) / 4
			}
			for range changes {
				pos := rng.Intn(len(v.states))
				s := v.states[pos]
				tokens := max(s.QueuedTokens+int64(rng.Intn(2*distinct+1)-distinct), 0)
				v.put(pos, tokens, s.QueuedRequests, s.Clock)
			}
			got, want := v.pickLeastLoaded(workload.Request{}), (leastLoaded{}).Route(workload.Request{}, v.states)
			if got != want {
				t.Fatalf("trial %d, op %d over %d positions: view picks %d, scan picks %d", trial, op, len(v.states), got, want)
			}
			if v.stale {
				continue
			}
			answered++
			fresh.build(len(v.states), func(i int) int64 { return v.states[i].QueuedTokens })
			if !slices.Equal(v.tree.node, fresh.node) {
				t.Fatalf("trial %d, op %d: min tree %v, a fresh build has %v", trial, op, v.tree.node, fresh.node)
			}
		}
	}
	if answered == 0 {
		t.Fatal("the min tree never answered a decision")
	}
}

// disaggRoles returns the roles of a fleet of prefill prefill replicas
// followed by decode decode replicas.
func disaggRoles(prefill, decode int) []Role {
	roles := make([]Role, 0, prefill+decode)
	for range prefill {
		roles = append(roles, RolePrefill)
	}
	for range decode {
		roles = append(roles, RoleDecode)
	}
	return roles
}
