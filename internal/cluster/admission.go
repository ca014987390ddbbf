package cluster

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// Admission gates arrivals before routing: a rejected request is dropped
// and recorded, never reaching a replica — the back-pressure mechanism
// that keeps tail latency bounded under overload. Admit sees the same
// cluster-owned slice the stage-1 router is offered next, under the
// same rule: read it, never modify or retain it.
//
// The built-in policies do not scan the slice: the cluster keeps
// running sums of the load signals and they answer from those. A
// policy of another type, including one that wraps a built-in policy,
// sees the slice.
type Admission interface {
	Name() string
	Admit(req workload.Request, replicas []ReplicaState) bool
}

// Admission policy names, as accepted by NewAdmission.
const (
	AdmitAll         = "all"
	AdmitQueueCap    = "queue-cap"
	AdmitTokenBudget = "token-budget"
)

var admissionFactories = map[string]func(limit int64) (Admission, error){
	AdmitAll: func(int64) (Admission, error) { return admitAll{}, nil },
	AdmitQueueCap: func(limit int64) (Admission, error) {
		if limit <= 0 {
			return nil, fmt.Errorf("cluster: queue-cap admission needs a positive per-replica request limit")
		}
		return queueCap{cap: int(limit)}, nil
	},
	AdmitTokenBudget: func(limit int64) (Admission, error) {
		if limit <= 0 {
			return nil, fmt.Errorf("cluster: token-budget admission needs a positive cluster token limit")
		}
		return tokenBudget{budget: limit}, nil
	},
}

// RegisterAdmission adds an admission policy under the given name; it
// panics on duplicates. Call from init or test setup.
func RegisterAdmission(name string, factory func(limit int64) (Admission, error)) {
	if _, dup := admissionFactories[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate admission policy %q", name))
	}
	admissionFactories[name] = factory
}

// NewAdmission builds the named admission policy. limit is the policy's
// bound: queued requests per replica for queue-cap, total in-flight
// tokens for token-budget; it is ignored by "all".
func NewAdmission(name string, limit int64) (Admission, error) {
	f, ok := admissionFactories[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown admission policy %q (have %v)", name, Admissions())
	}
	return f(limit)
}

// Admissions returns the registered admission policy names, sorted.
func Admissions() []string {
	names := make([]string, 0, len(admissionFactories))
	for name := range admissionFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// admitAll is the unbounded policy: every arrival is admitted.
type admitAll struct{}

func (admitAll) Name() string                                { return AdmitAll }
func (admitAll) Admit(workload.Request, []ReplicaState) bool { return true }

// queueCap is a cluster-wide back-pressure gate: it admits while the
// cluster holds fewer than cap*replicas queued requests. The limit is
// expressed per replica so it scales with the deployment, but it bounds
// aggregate queueing, not any single replica's queue — keeping
// individual queues balanced is the router's job (admission runs before
// routing, so it cannot know the placement).
type queueCap struct{ cap int }

func (q queueCap) Name() string { return AdmitQueueCap }

func (q queueCap) Admit(_ workload.Request, replicas []ReplicaState) bool {
	queued := 0
	for _, r := range replicas {
		queued += r.QueuedRequests
	}
	return queued < q.cap*len(replicas)
}

func (q queueCap) admitFrom(_ workload.Request, v *routeView) bool {
	return v.queuedRequests < q.cap*len(v.states)
}

// tokenBudget admits while the cluster-wide queued token count plus the
// request's own tokens fits the budget — admission control in the same
// unit (KV-resident tokens) that drives replica memory pressure.
type tokenBudget struct{ budget int64 }

func (b tokenBudget) Name() string { return AdmitTokenBudget }

func (b tokenBudget) Admit(req workload.Request, replicas []ReplicaState) bool {
	var queued int64
	for _, r := range replicas {
		queued += r.QueuedTokens
	}
	return queued+int64(req.TotalLen()) <= b.budget
}

func (b tokenBudget) admitFrom(req workload.Request, v *routeView) bool {
	return v.queuedTokens+int64(req.TotalLen()) <= b.budget
}
