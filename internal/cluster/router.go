package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// ReplicaState is the routing- and admission-visible state of one
// replica at a routing instant.
type ReplicaState struct {
	Index          int
	QueuedTokens   int64        // prompt+output tokens waiting or in flight
	QueuedRequests int          // requests waiting or in flight
	Clock          simtime.Time // replica's simulated clock
	// PrefixTokens counts the routed request's class prefix tokens this
	// replica currently has cached (device or host tier); zero when the
	// request has no class or prefix caching is off.
	PrefixTokens int
	// DevicePrefixTokens is the device-resident subset of PrefixTokens —
	// coverage served without recompute or a host-link reload. Routers
	// see it but none currently rank on it; the telemetry recorder's
	// counterfactual regret cost model does. Only populated when a
	// telemetry recorder is attached.
	DevicePrefixTokens int
}

// Router places each admitted request on a replica. Implementations may
// keep state (e.g. a round-robin cursor) but must be deterministic:
// routing depends only on the request, the states, and prior calls.
//
// In a dynamic fleet only active replicas are offered, so replicas is
// the routable subset: Route returns an index into that slice, and the
// cluster maps it back through ReplicaState.Index to the global slot.
// The slice belongs to the cluster, which updates it in place between
// calls: Route must neither modify it nor retain it past the call.
//
// The built-in least-loaded router does not scan the slice: the
// cluster keeps a min tree of the replicas' queued tokens for it and
// it answers from that. A router of another type, including one that
// wraps a built-in router, sees the slice.
type Router interface {
	Name() string
	// Route returns the chosen position, 0 <= idx < len(replicas).
	Route(req workload.Request, replicas []ReplicaState) int
}

// Router policy names, as accepted by NewRouter.
const (
	RouterRoundRobin     = "round-robin"
	RouterLeastLoad      = "least-loaded"
	RouterAffinity       = "affinity"
	RouterPrefixAffinity = "prefix-affinity"
)

var routerFactories = map[string]func() Router{
	RouterRoundRobin:     func() Router { return &roundRobin{} },
	RouterLeastLoad:      func() Router { return leastLoaded{} },
	RouterAffinity:       func() Router { return affinity{} },
	RouterPrefixAffinity: func() Router { return prefixAffinity{} },
}

// RegisterRouter adds a routing policy under the given name; it
// panics on duplicates, mirroring the behaviour of flag registration.
// Call from init or test setup.
func RegisterRouter(name string, factory func() Router) {
	if _, dup := routerFactories[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate router %q", name))
	}
	routerFactories[name] = factory
}

// NewRouter builds a fresh instance of the named routing policy.
func NewRouter(name string) (Router, error) {
	f, ok := routerFactories[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown router %q (have %v)", name, Routers())
	}
	return f(), nil
}

// Routers returns the registered router names, sorted.
func Routers() []string {
	names := make([]string, 0, len(routerFactories))
	for name := range routerFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// roundRobin cycles through replicas in index order regardless of load.
type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return RouterRoundRobin }

func (r *roundRobin) Route(_ workload.Request, replicas []ReplicaState) int {
	idx := r.next % len(replicas)
	r.next = (r.next + 1) % len(replicas)
	return idx
}

// leastLoaded picks the replica with the fewest queued tokens, breaking
// ties toward the lowest index — the join-shortest-queue policy of
// multi-instance serving gateways.
type leastLoaded struct{}

func (leastLoaded) Name() string { return RouterLeastLoad }

func (leastLoaded) Route(_ workload.Request, replicas []ReplicaState) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].QueuedTokens < replicas[best].QueuedTokens {
			best = i
		}
	}
	return best
}

func (leastLoaded) routeFrom(req workload.Request, v *routeView) int { return v.pickLeastLoaded(req) }

// affinity hashes the request's session key to a fixed replica, keeping
// same-class (shared prompt prefix) traffic together so prefix KV reuse
// stays local to one instance. Classless requests fall back to their ID,
// spreading them uniformly.
type affinity struct{}

func (affinity) Name() string { return RouterAffinity }

func (affinity) Route(req workload.Request, replicas []ReplicaState) int {
	key := req.Class
	if key == "" {
		key = strconv.Itoa(req.ID)
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(replicas)))
}

// prefixAffinity routes to the replica caching the longest prefix of the
// request's class — the hits land where the KV already is — breaking
// ties toward the fewest queued tokens and then the lowest index. When
// no replica has any of the prefix cached (cold class, prefix caching
// off, classless request) it degenerates to least-loaded.
type prefixAffinity struct{}

func (prefixAffinity) Name() string { return RouterPrefixAffinity }

func (prefixAffinity) Route(_ workload.Request, replicas []ReplicaState) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].PrefixTokens > replicas[best].PrefixTokens ||
			(replicas[i].PrefixTokens == replicas[best].PrefixTokens &&
				replicas[i].QueuedTokens < replicas[best].QueuedTokens) {
			best = i
		}
	}
	return best
}
