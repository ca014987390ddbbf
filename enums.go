package llmservingsim

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/network"
	"repro/internal/sched"
)

// The enum types below replace the artifact's stringly-typed simulation
// parameters (parallel, scheduling, kv_manage, pim_type) and the cluster
// policies added since. Each has a Parse function accepting the
// artifact's CLI spellings (the empty string selects the artifact
// default) and a String method returning the canonical spelling, so
// round-tripping through flags and TSV output is lossless. All
// implement flag.Value, so they can be bound to command-line flags
// directly with flag.Var. The zero value of every enum is the artifact
// default, making zero-valued Config fields safe.
//
// Every enum is one enumTable: its constants' spellings and internal
// values in a slice indexed by the enum value. The table is the single
// source for parsing, printing, validation, conversion to the internal
// packages, the listing functions and PolicyChoices.

// enumConst is one constant of a table-driven enum: its canonical
// spelling, the other spellings Parse accepts, and the internal value
// it converts to.
type enumConst[I comparable] struct {
	name     string
	aliases  []string
	internal I
}

// enumTable drives one enum. consts is indexed by the enum value, so
// String, valid and internal are a bounds check and a slice index;
// consts[0] is the zero value, which the empty string selects and
// out-of-range values convert to internally. order holds the canonical
// spellings in the order listings, help text and parse errors give
// them.
type enumTable[E ~int, I comparable] struct {
	typ, noun string
	consts    []enumConst[I]
	order     []string
}

// policyChoices maps each CLI policy kind (its flag name) to its enum's
// canonical spellings; see PolicyChoices.
var policyChoices = map[string][]string{}

// newEnum builds a table. typ names the Go type (printed for
// out-of-range values), noun names the enum in parse errors, kind is
// the CLI flag the enum backs ("" for none), and order lists the values
// in display order (nil: value order).
func newEnum[E ~int, I comparable](typ, noun, kind string, order []E, consts ...enumConst[I]) *enumTable[E, I] {
	t := &enumTable[E, I]{typ: typ, noun: noun, consts: consts}
	if order == nil {
		for i := range consts {
			order = append(order, E(i))
		}
	}
	for _, v := range order {
		t.order = append(t.order, consts[v].name)
	}
	if kind != "" {
		policyChoices[kind] = t.order
	}
	return t
}

func (t *enumTable[E, I]) parse(s string) (E, error) {
	if s == "" {
		return 0, nil
	}
	for i, c := range t.consts {
		if c.name == s || slices.Contains(c.aliases, s) {
			return E(i), nil
		}
	}
	return 0, fmt.Errorf("llmservingsim: unknown %s %q (want %s)", t.noun, s, strings.Join(t.order, "|"))
}

func (t *enumTable[E, I]) set(p *E, s string) error {
	v, err := t.parse(s)
	if err == nil {
		*p = v
	}
	return err
}

func (t *enumTable[E, I]) valid(v E) bool { return v >= 0 && int(v) < len(t.consts) }

func (t *enumTable[E, I]) str(v E) string {
	if !t.valid(v) {
		return fmt.Sprintf("%s(%d)", t.typ, int(v))
	}
	return t.consts[v].name
}

func (t *enumTable[E, I]) internal(v E) I {
	if !t.valid(v) {
		v = 0
	}
	return t.consts[v].internal
}

// fromInternal is the inverse of internal; unknown values map to the
// zero value.
func (t *enumTable[E, I]) fromInternal(in I) E {
	for i, c := range t.consts {
		if c.internal == in {
			return E(i)
		}
	}
	return 0
}

func (t *enumTable[E, I]) names() []string { return slices.Clone(t.order) }

// PolicyChoices returns the canonical spellings of the enum behind a
// CLI policy flag ("parallel", "scheduling", "kv-manage", "pim-type",
// "prefix-cache", "perf-model", "router", "admission", "autoscaler" or
// "trace-detail"), in the order the flag help lists them, or nil for
// any other kind. Router, admission and autoscaler choices are the
// built-in policies the enums name; Routers, Admissions and Autoscalers
// list the registries, custom registrations included.
func PolicyChoices(kind string) []string { return slices.Clone(policyChoices[kind]) }

// Parallelism selects how the model is distributed across accelerators
// (the artifact's "parallel" parameter). The zero value is
// ParallelismHybrid, the artifact default.
type Parallelism int

const (
	// ParallelismHybrid pipelines across NPU groups and shards tensors
	// within each group (requires Config.NPUGroups).
	ParallelismHybrid Parallelism = iota
	// ParallelismTensor shards every weight matrix across all nodes.
	ParallelismTensor
	// ParallelismPipeline assigns contiguous layer ranges to nodes.
	ParallelismPipeline
)

var parallelisms = newEnum("Parallelism", "parallelism", "parallel",
	[]Parallelism{ParallelismTensor, ParallelismPipeline, ParallelismHybrid},
	enumConst[network.Parallelism]{"hybrid", nil, network.Hybrid},
	enumConst[network.Parallelism]{"tensor", nil, network.Tensor},
	enumConst[network.Parallelism]{"pipeline", nil, network.Pipeline})

// ParseParallelism converts the artifact's CLI values ("tensor",
// "pipeline", "hybrid"; "" selects the default, hybrid).
func ParseParallelism(s string) (Parallelism, error) { return parallelisms.parse(s) }

func (p Parallelism) String() string { return parallelisms.str(p) }

// Set implements flag.Value.
func (p *Parallelism) Set(s string) error { return parallelisms.set(p, s) }

func (p Parallelism) valid() bool { return parallelisms.valid(p) }

func (p Parallelism) internal() network.Parallelism { return parallelisms.internal(p) }

// SchedPolicy selects the batch scheduling policy (the artifact's
// "scheduling" parameter). The zero value is SchedOrca, the artifact
// default.
type SchedPolicy int

const (
	// SchedOrca is Orca-style iteration-level scheduling: requests join
	// and leave the running batch at iteration boundaries.
	SchedOrca SchedPolicy = iota
	// SchedStatic runs each admitted batch to full completion before
	// admitting new requests.
	SchedStatic
	// SchedChunked is Orca-style continuous batching with chunked
	// prefill: prompts longer than Config.PrefillChunk are split across
	// iterations so long prefills don't stall decode latency.
	SchedChunked
)

var schedPolicies = newEnum[SchedPolicy]("SchedPolicy", "scheduling policy", "scheduling", nil,
	enumConst[sched.Policy]{"orca", []string{"iteration"}, sched.Orca},
	enumConst[sched.Policy]{"static", []string{"batch"}, sched.Static},
	enumConst[sched.Policy]{"chunked", []string{"chunk"}, sched.Chunked})

// ParseSchedPolicy converts the artifact's CLI values ("orca" or
// "iteration", "static" or "batch", plus "chunked" or "chunk"; ""
// selects the default, orca).
func ParseSchedPolicy(s string) (SchedPolicy, error) { return schedPolicies.parse(s) }

func (p SchedPolicy) String() string { return schedPolicies.str(p) }

// Set implements flag.Value.
func (p *SchedPolicy) Set(s string) error { return schedPolicies.set(p, s) }

func (p SchedPolicy) valid() bool { return schedPolicies.valid(p) }

func (p SchedPolicy) internal() sched.Policy { return schedPolicies.internal(p) }

// KVPolicy selects KV-cache memory management (the artifact's
// "kv_manage" parameter). The zero value is KVPaged, the artifact
// default.
type KVPolicy int

const (
	// KVPaged is vLLM-style paged allocation at KVPageTokens granularity.
	KVPaged KVPolicy = iota
	// KVMaxLen reserves each request's maximum sequence length up front.
	KVMaxLen
)

var kvPolicies = newEnum[KVPolicy]("KVPolicy", "kv policy", "kv-manage", nil,
	enumConst[kvcache.Policy]{"vllm", []string{"paged"}, kvcache.Paged},
	enumConst[kvcache.Policy]{"maxlen", []string{"max"}, kvcache.MaxLen})

// ParseKVPolicy converts the artifact's CLI values ("vllm" or "paged",
// "maxlen" or "max"; "" selects the default, vllm).
func ParseKVPolicy(s string) (KVPolicy, error) { return kvPolicies.parse(s) }

func (p KVPolicy) String() string { return kvPolicies.str(p) }

// Set implements flag.Value.
func (p *KVPolicy) Set(s string) error { return kvPolicies.set(p, s) }

func (p KVPolicy) valid() bool { return kvPolicies.valid(p) }

func (p KVPolicy) internal() kvcache.Policy { return kvPolicies.internal(p) }

// PrefixCacheMode selects whether (and where) the KV manager caches
// shared prompt prefixes across requests. The zero value is
// PrefixCacheOff: prefix caching is strictly opt-in, leaving default
// runs bit-identical to earlier releases.
type PrefixCacheMode int

const (
	// PrefixCacheOff disables prefix caching.
	PrefixCacheOff PrefixCacheMode = iota
	// PrefixCacheGPU caches shared prefix blocks in device memory only;
	// blocks evicted under pressure are dropped and recomputed on the
	// next miss.
	PrefixCacheGPU
	// PrefixCacheTiered adds a host (CPU) spill tier: prefix blocks
	// evicted from the device spill over the host link and reload on the
	// next hit instead of being recomputed. Capacity is bounded by
	// Config.KVHostMemGB (0 = unbounded host tier).
	PrefixCacheTiered
)

var prefixCacheModes = newEnum[PrefixCacheMode]("PrefixCacheMode", "prefix cache mode", "prefix-cache", nil,
	enumConst[kvcache.PrefixMode]{"off", nil, kvcache.PrefixOff},
	enumConst[kvcache.PrefixMode]{"gpu", []string{"device"}, kvcache.PrefixDevice},
	enumConst[kvcache.PrefixMode]{"tiered", []string{"cpu"}, kvcache.PrefixTiered})

// ParsePrefixCacheMode converts CLI values ("off", "gpu" or "device",
// "tiered" or "cpu"; "" selects the default, off).
func ParsePrefixCacheMode(s string) (PrefixCacheMode, error) { return prefixCacheModes.parse(s) }

func (m PrefixCacheMode) String() string { return prefixCacheModes.str(m) }

// Set implements flag.Value.
func (m *PrefixCacheMode) Set(s string) error { return prefixCacheModes.set(m, s) }

func (m PrefixCacheMode) valid() bool { return prefixCacheModes.valid(m) }

func (m PrefixCacheMode) internal() kvcache.PrefixMode { return prefixCacheModes.internal(m) }

// PIMMode selects how PIM devices participate (the artifact's
// "pim_type" parameter). The zero value is PIMNone.
type PIMMode int

const (
	// PIMNone runs a homogeneous NPU system.
	PIMNone PIMMode = iota
	// PIMLocal pairs each NPU with a directly-attached PIM device
	// (Fig. 5(a)).
	PIMLocal
	// PIMPool places PIM devices in a separate pool reached over the
	// interconnect (Fig. 5(b)).
	PIMPool
)

var pimModes = newEnum[PIMMode]("PIMMode", "pim mode", "pim-type", nil,
	enumConst[core.PIMMode]{"none", nil, core.PIMNone},
	enumConst[core.PIMMode]{"local", nil, core.PIMLocal},
	enumConst[core.PIMMode]{"pool", nil, core.PIMPool})

// ParsePIMMode converts the artifact's CLI values ("none", "local",
// "pool"; "" selects the default, none).
func ParsePIMMode(s string) (PIMMode, error) { return pimModes.parse(s) }

func (m PIMMode) String() string { return pimModes.str(m) }

// Set implements flag.Value.
func (m *PIMMode) Set(s string) error { return pimModes.set(m, s) }

func (m PIMMode) valid() bool { return pimModes.valid(m) }

func (m PIMMode) internal() core.PIMMode { return pimModes.internal(m) }

// PerfModel selects the performance-model backend that prices each
// simulated iteration. The zero value is PerfModelAstra, the full
// pipeline the artifact ships.
type PerfModel int

const (
	// PerfModelAstra runs the paper's full pipeline per iteration:
	// execution-engine compilation/simulation of every operator, graph
	// conversion, and discrete-event system simulation. Highest
	// fidelity; bit-identical to the pre-backend simulator.
	PerfModelAstra PerfModel = iota
	// PerfModelRoofline prices iterations analytically against a device
	// roofline (peak FLOPs vs memory bandwidth) plus analytic
	// collective costs — orders of magnitude faster, for large sweeps
	// and capacity planning.
	PerfModelRoofline
)

// perfModels has no internal values: the backend is built by a switch
// on the enum (see buildOptions).
var perfModels = newEnum[PerfModel]("PerfModel", "perf model", "perf-model", nil,
	enumConst[struct{}]{name: "astra"},
	enumConst[struct{}]{name: "roofline", aliases: []string{"analytical"}})

// ParsePerfModel converts CLI values ("astra", "roofline" or
// "analytical"; "" selects the default, astra).
func ParsePerfModel(s string) (PerfModel, error) { return perfModels.parse(s) }

func (p PerfModel) String() string { return perfModels.str(p) }

// Set implements flag.Value.
func (p *PerfModel) Set(s string) error { return perfModels.set(p, s) }

func (p PerfModel) valid() bool { return perfModels.valid(p) }

// RouterPolicy selects how a cluster routes admitted requests across
// replicas. The zero value is RouterRoundRobin.
type RouterPolicy int

const (
	// RouterRoundRobin cycles through replicas in index order.
	RouterRoundRobin RouterPolicy = iota
	// RouterLeastLoaded places each request on the replica with the
	// fewest queued tokens (join-shortest-queue).
	RouterLeastLoaded
	// RouterAffinity hashes the request's traffic class to a fixed
	// replica, keeping shared-prefix traffic on one instance.
	RouterAffinity
	// RouterPrefixAffinity places each request on the replica caching
	// the longest prefix of its class, falling back to least-loaded when
	// no replica has any of it cached. Requires prefix caching to see
	// non-zero cache state; without it the policy is least-loaded.
	RouterPrefixAffinity
)

// routerPolicies' internal values are internal/cluster registry names.
var routerPolicies = newEnum[RouterPolicy]("RouterPolicy", "router", "router", nil,
	enumConst[string]{"round-robin", []string{"rr"}, cluster.RouterRoundRobin},
	enumConst[string]{"least-loaded", []string{"least"}, cluster.RouterLeastLoad},
	enumConst[string]{"affinity", []string{"session"}, cluster.RouterAffinity},
	enumConst[string]{"prefix-affinity", []string{"prefix"}, cluster.RouterPrefixAffinity})

// ParseRouterPolicy converts CLI values ("round-robin" or "rr",
// "least-loaded" or "least", "affinity" or "session", "prefix-affinity"
// or "prefix"; "" selects the default, round-robin).
func ParseRouterPolicy(s string) (RouterPolicy, error) { return routerPolicies.parse(s) }

func (p RouterPolicy) String() string { return routerPolicies.str(p) }

// Set implements flag.Value.
func (p *RouterPolicy) Set(s string) error { return routerPolicies.set(p, s) }

func (p RouterPolicy) valid() bool { return routerPolicies.valid(p) }

func (p RouterPolicy) internal() string { return routerPolicies.internal(p) }

// AdmissionPolicy selects how a cluster gates arrivals before routing.
// The zero value is AdmitAll.
type AdmissionPolicy int

const (
	// AdmitAll admits every arrival (unbounded queues).
	AdmitAll AdmissionPolicy = iota
	// AdmitQueueCap rejects arrivals once the cluster holds
	// AdmissionLimit*Replicas queued requests (aggregate back-pressure;
	// per-replica balance is the router's job).
	AdmitQueueCap
	// AdmitTokenBudget rejects arrivals that would push the cluster's
	// queued token total past AdmissionLimit.
	AdmitTokenBudget
)

// admissionPolicies' internal values are internal/cluster registry
// names.
var admissionPolicies = newEnum[AdmissionPolicy]("AdmissionPolicy", "admission policy", "admission", nil,
	enumConst[string]{"all", []string{"unbounded"}, cluster.AdmitAll},
	enumConst[string]{"queue-cap", []string{"queue"}, cluster.AdmitQueueCap},
	enumConst[string]{"token-budget", []string{"tokens"}, cluster.AdmitTokenBudget})

// ParseAdmissionPolicy converts CLI values ("all" or "unbounded",
// "queue-cap" or "queue", "token-budget" or "tokens"; "" selects the
// default, all).
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) { return admissionPolicies.parse(s) }

func (p AdmissionPolicy) String() string { return admissionPolicies.str(p) }

// Set implements flag.Value.
func (p *AdmissionPolicy) Set(s string) error { return admissionPolicies.set(p, s) }

func (p AdmissionPolicy) valid() bool { return admissionPolicies.valid(p) }

func (p AdmissionPolicy) internal() string { return admissionPolicies.internal(p) }

// AutoscalePolicy selects how a cluster resizes its fleet at runtime.
// The zero value is ScaleNone (a static fleet).
type AutoscalePolicy int

const (
	// ScaleNone keeps the fleet at its configured size.
	ScaleNone AutoscalePolicy = iota
	// ScaleQueueDepth sizes the fleet so each active replica holds at
	// most ScaleQueueTarget queued requests.
	ScaleQueueDepth
	// ScaleSLO steps the fleet by one replica per tick on SLO-attainment
	// pressure, holding inside the [ScaleSLOTarget, ScaleSLOHigh]
	// hysteresis band.
	ScaleSLO
	// ScaleScheduled follows the pre-planned ScaleSchedule step
	// function.
	ScaleScheduled
)

// autoscalePolicies' internal values are internal/cluster registry
// names; ScaleNone has none.
var autoscalePolicies = newEnum[AutoscalePolicy]("AutoscalePolicy", "autoscaler", "autoscaler", nil,
	enumConst[string]{"none", nil, ""},
	enumConst[string]{"queue-depth", []string{"queue"}, cluster.ScaleQueueDepth},
	enumConst[string]{"slo-target", []string{"slo"}, cluster.ScaleSLOTarget},
	enumConst[string]{"scheduled", nil, cluster.ScaleScheduled})

// ParseAutoscalePolicy converts CLI values ("none", "queue-depth" or
// "queue", "slo-target" or "slo", "scheduled"; "" selects the default,
// none).
func ParseAutoscalePolicy(s string) (AutoscalePolicy, error) { return autoscalePolicies.parse(s) }

func (p AutoscalePolicy) String() string { return autoscalePolicies.str(p) }

// Set implements flag.Value.
func (p *AutoscalePolicy) Set(s string) error { return autoscalePolicies.set(p, s) }

func (p AutoscalePolicy) valid() bool { return autoscalePolicies.valid(p) }

func (p AutoscalePolicy) internal() string { return autoscalePolicies.internal(p) }

// ReplicaRole assigns a fleet entry's replicas to a serving pool in a
// disaggregated cluster. The zero value is RoleUnified: the replica
// runs both phases, the classic colocated deployment. A fleet mixing
// prefill and decode entries simulates disaggregated serving — prefill
// replicas compute the first token, then hand the KV cache to a decode
// replica over the interconnect.
type ReplicaRole int

const (
	// RoleUnified serves both prefill and decode (the default).
	RoleUnified ReplicaRole = iota
	// RolePrefill serves only the prompt phase; each request's KV cache
	// is shipped to a decode replica after the first token.
	RolePrefill
	// RoleDecode serves only the token-generation phase, starting from
	// a KV cache received from a prefill replica.
	RoleDecode
)

var replicaRoles = newEnum[ReplicaRole]("ReplicaRole", "replica role", "", nil,
	enumConst[cluster.Role]{"unified", nil, cluster.RoleUnified},
	enumConst[cluster.Role]{"prefill", nil, cluster.RolePrefill},
	enumConst[cluster.Role]{"decode", nil, cluster.RoleDecode})

// ParseReplicaRole converts fleet-grammar values ("unified", "prefill",
// "decode"; "" selects the default, unified).
func ParseReplicaRole(s string) (ReplicaRole, error) { return replicaRoles.parse(s) }

func (p ReplicaRole) String() string { return replicaRoles.str(p) }

// Set implements flag.Value.
func (p *ReplicaRole) Set(s string) error { return replicaRoles.set(p, s) }

func (p ReplicaRole) valid() bool { return replicaRoles.valid(p) }

func (p ReplicaRole) internal() cluster.Role { return replicaRoles.internal(p) }
