package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkClusterRun measures the cluster hot path end to end: the
// advance-to-arrival event loop, routing snapshots, and the record
// pipeline, over 4 replicas and a 60-request mixed trace.
func BenchmarkClusterRun(b *testing.B) {
	for _, router := range []string{RouterRoundRobin, RouterLeastLoad, RouterAffinity} {
		b.Run(router, func(b *testing.B) {
			trace := testTrace(b, 60)
			factory := newReplicaFactory(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _ := NewRouter(router)
				c, err := New(Config{
					Replicas:   4,
					NewReplica: factory,
					Router:     r,
					Classes:    testClasses(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(trace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouterRoute isolates the per-arrival routing decision.
func BenchmarkRouterRoute(b *testing.B) {
	states := make([]ReplicaState, 16)
	for i := range states {
		states[i] = ReplicaState{Index: i, QueuedTokens: int64(1000 - i*7), QueuedRequests: 16 - i}
	}
	reqs := testTrace(b, 64)
	for _, name := range Routers() {
		b.Run(name, func(b *testing.B) {
			r, err := NewRouter(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				idx := r.Route(reqs[i%len(reqs)], states)
				if idx < 0 || idx >= len(states) {
					b.Fatal("out of range")
				}
			}
		})
	}
}

// BenchmarkRouterPick times the least-loaded pick at fleet width: a scan
// of 256 replica states per arrival, the routing cost fleet256 pays.
// Each pick charges the request's tokens to the chosen replica, as the
// cluster's routing view does, so successive picks land on different
// replicas. One op is picksPerOp picks, so ns/op divided by 1000 is one
// pick and CI's -benchtime=1x measures the scan, not the timer; one
// untimed op first warms caches and branch predictors, so a single
// timed op reads the warm path.
func BenchmarkRouterPick(b *testing.B) {
	const width, picksPerOp = 256, 1000
	states := make([]ReplicaState, width)
	for i := range states {
		states[i] = ReplicaState{Index: i, QueuedTokens: int64((i * 7919) % 4096)}
	}
	reqs := testTrace(b, 64)
	r, err := NewRouter(RouterLeastLoad)
	if err != nil {
		b.Fatal(err)
	}
	op := func(i int) {
		for k := range picksPerOp {
			req := reqs[(i+k)%len(reqs)]
			idx := r.Route(req, states)
			states[idx].QueuedTokens += int64(req.TotalLen())
		}
	}
	op(0)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		op(i)
	}
}

// BenchmarkViewArrival times the routing layer's share of one arrival
// across fleet widths. Between two fleet256 arrivals about 24 replicas
// step, so each arrival first re-reads 24 replicas into the view, each
// with fewer queued tokens and the first with one request finished (so
// the queued-request total holds steady and queue-cap keeps admitting
// however many ops run), then admits the request through queue-cap,
// routes it through least-loaded and charges its tokens to the chosen
// replica. path=view takes the cluster's path for built-in policies,
// answering from the view's sums and min tree; path=slice hides that
// path, as a wrapped policy does, so both policies scan the states. One
// op is arrivalsPerOp arrivals; one untimed op runs first, as in
// BenchmarkRouterPick.
func BenchmarkViewArrival(b *testing.B) {
	const dirtyPerArrival, arrivalsPerOp = 24, 1000
	reqs := testTrace(b, 64)
	for _, width := range []int{256, 1024} {
		for _, path := range []string{"view", "slice"} {
			b.Run(fmt.Sprintf("replicas=%d/path=%s", width, path), func(b *testing.B) {
				var router Router = leastLoaded{}
				var admission Admission = queueCap{cap: 48}
				if path == "slice" {
					router = struct{ Router }{router}
					admission = struct{ Admission }{admission}
				}
				c := &Cluster{admission: admission}
				c.fastAdmission, _ = admission.(viewAdmission)
				v := &routeView{states: make([]ReplicaState, width), ok: true}
				for i := range v.states {
					v.states[i] = ReplicaState{Index: i, QueuedTokens: int64((i * 7919) % 4096), QueuedRequests: 1 + i%8}
				}
				v.setRouter(router)
				v.aggregate()
				slot := uint32(1)
				op := func(i int) {
					for k := range arrivalsPerOp {
						for d := range dirtyPerArrival {
							slot = slot*1664525 + 1013904223
							pos := int(slot>>8) % width
							s := v.states[pos]
							requests := s.QueuedRequests
							if d == 0 {
								requests = max(requests-1, 0)
							}
							v.put(pos, max(s.QueuedTokens-6, 0), requests, s.Clock)
						}
						req := reqs[(i+k)%len(reqs)]
						if !c.admit(req, v) {
							continue
						}
						pos := v.route(req)
						s := v.states[pos]
						v.put(pos, s.QueuedTokens+int64(req.TotalLen()), s.QueuedRequests+1, s.Clock)
					}
				}
				op(0) // also builds the min tree
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					op(i)
				}
			})
		}
	}
}
