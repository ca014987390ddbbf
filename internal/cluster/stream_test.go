package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/network"
	"repro/internal/perfmodel"
	"repro/internal/perfmodel/roofline"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// reportFingerprint serializes the report's deterministic surface so
// runs can be compared byte for byte. withRequests adds the
// per-request table (absent in streaming-metrics mode, where
// Report.Records is nil).
func reportFingerprint(t testing.TB, r *Report, withRequests bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteClassTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteReplicaTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if withRequests {
		if err := r.WriteRequestsTSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&buf, "counts %d %d %d %d\nend %d\nlatency %+v\nrates %.17g %.17g %.17g\n",
		r.Requests, r.Admitted, r.Rejected, r.Requeued, int64(r.SimEnd),
		r.Latency, r.ThroughputTPS, r.GoodputTPS, r.PromptTPS)
	return buf.Bytes()
}

// TestRunStreamMatchesRun pins the pull path against the materialized
// path: feeding the generator stream directly must be byte-identical
// to collecting it into a trace first.
func TestRunStreamMatchesRun(t *testing.T) {
	run := func(stream bool) *Report {
		c, err := New(Config{
			Replicas:   4,
			NewReplica: newReplicaFactory(t),
			Classes:    testClasses(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !stream {
			rep, err := c.Run(testTrace(t, 40))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		s, err := workload.NewMultiClassStream(testClasses(), 40, workload.Ramp{}, 17)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.RunStream(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a := reportFingerprint(t, run(false), true)
	b := reportFingerprint(t, run(true), true)
	if !bytes.Equal(a, b) {
		t.Fatalf("stream run diverges from materialized run:\n%s\nvs\n%s", a, b)
	}
}

// contractReplicaFactory builds roofline-priced 2-NPU gpt2 replicas
// with the given prefix-cache mode; decode-pool replicas skip prefill,
// since their prompts arrive as handed-off KV caches.
func contractReplicaFactory(t testing.TB, prefix kvcache.PrefixMode) func(int, Role) (*core.Simulator, error) {
	return rooflineReplicaFactory(t, func(o *core.Options) { o.KVPrefix = prefix })
}

// rooflineReplicaFactory is contractReplicaFactory with the replica
// options adjusted by tweak before the backend is priced from them.
// Each replica's telemetry is labelled with its slot.
func rooflineReplicaFactory(t testing.TB, tweak func(*core.Options)) func(int, Role) (*core.Simulator, error) {
	t.Helper()
	topo, err := network.Build(network.Tensor, 2, 1, config.DefaultLink(), config.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		Model:    model.MustLookup("gpt2"),
		Topo:     topo,
		NPU:      config.DefaultNPU(),
		KVPolicy: kvcache.Paged,
		Reuse:    core.ReuseAll(),
	}
	tweak(&opts)
	pc := perfmodel.Config{Model: opts.Model, Topo: topo, Reuse: opts.Reuse}
	hw := perfmodel.HardwareFromNPU(opts.NPU)
	opts.Backend = func() (perfmodel.Backend, error) { return roofline.New(pc, hw) }
	return func(i int, role Role) (*core.Simulator, error) {
		o := opts
		o.ObsReplica = i
		o.Sched.SkipPrefill = role == RoleDecode
		return core.New(o, nil)
	}
}

// contractScenario is one configuration the retained-vs-streaming
// contract is checked on. config builds a fresh Config per run (routers
// and scalers are stateful); check asserts the scenario exercised the
// feature it names.
type contractScenario struct {
	name   string
	config func(t *testing.T) Config
	trace  func(t *testing.T) []workload.Request
	check  func(t *testing.T, r *Report)
}

func mustRouter(t *testing.T, name string) Router {
	t.Helper()
	r, err := NewRouter(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func contractScenarios() []contractScenario {
	trace := func(n int) func(t *testing.T) []workload.Request {
		return func(t *testing.T) []workload.Request { return testTrace(t, n) }
	}
	sessionClasses := []workload.Class{
		{Name: "chat", Dist: workload.Fixed(192, 96), Rate: 48,
			TTFT: 2 * simtime.Second, TPOT: 250 * simtime.Millisecond, PrefixLen: 128},
		{Name: "api", Dist: workload.Fixed(96, 48), Rate: 80,
			TTFT: 120 * simtime.Millisecond, TPOT: 2 * simtime.Millisecond, PrefixLen: 64},
	}
	return []contractScenario{{
		name: "unified",
		config: func(t *testing.T) Config {
			return Config{Replicas: 4, NewReplica: newReplicaFactory(t), Classes: testClasses()}
		},
		trace: trace(60),
		check: func(*testing.T, *Report) {},
	}, {
		name: "disaggregated",
		config: func(t *testing.T) Config {
			return Config{
				Replicas:     4,
				Roles:        []Role{RolePrefill, RolePrefill, RoleDecode, RoleDecode},
				NewReplica:   contractReplicaFactory(t, kvcache.PrefixOff),
				Router:       mustRouter(t, RouterLeastLoad),
				DecodeRouter: mustRouter(t, RouterLeastLoad),
				Classes:      testClasses(),
			}
		},
		trace: trace(60),
		check: func(t *testing.T, r *Report) {
			if r.HandoffCount == 0 || len(r.Pools) != 2 {
				t.Fatalf("no handoffs (%d) or pools (%d)", r.HandoffCount, len(r.Pools))
			}
		},
	}, {
		name: "failure-requeue",
		config: func(t *testing.T) Config {
			return Config{
				Replicas:   2,
				NewReplica: contractReplicaFactory(t, kvcache.PrefixOff),
				Router:     mustRouter(t, RouterLeastLoad),
				Classes:    testClasses(),
				Events: []workload.FleetEvent{
					{Time: simtime.Time(simtime.Second), Kind: workload.EventFail, Replica: 0},
				},
			}
		},
		trace: trace(40),
		check: func(t *testing.T, r *Report) {
			if r.Requeued == 0 {
				t.Fatal("the failure requeued nothing")
			}
		},
	}, {
		name: "autoscaler",
		config: func(t *testing.T) Config {
			scaler, err := NewAutoscaler(ScaleQueueDepth, AutoscalerConfig{QueueTarget: 1})
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Replicas:       1,
				NewReplica:     contractReplicaFactory(t, kvcache.PrefixOff),
				Router:         mustRouter(t, RouterLeastLoad),
				Classes:        testClasses(),
				Autoscaler:     scaler,
				ScaleTick:      100 * simtime.Millisecond,
				MaxReplicas:    3,
				ProvisionDelay: 200 * simtime.Millisecond,
			}
		},
		trace: trace(60),
		check: func(t *testing.T, r *Report) {
			if r.PeakReplicas() < 2 {
				t.Fatalf("fleet never scaled: peak %d", r.PeakReplicas())
			}
		},
	}, {
		name: "sessions-prefix-affinity",
		config: func(t *testing.T) Config {
			return Config{
				Replicas:   2,
				NewReplica: contractReplicaFactory(t, kvcache.PrefixDevice),
				Router:     mustRouter(t, RouterPrefixAffinity),
				Classes:    sessionClasses,
			}
		},
		trace: func(t *testing.T) []workload.Request {
			pop := workload.Population{
				Clients: 16, RateDist: "zipf", Skew: 1.1,
				DiurnalAmp: 0.3, DiurnalPeriod: 60,
				BurstFactor: 3, BurstFrac: 0.1, BurstMean: 5,
			}
			sess := workload.SessionSpec{MeanTurns: 4, ThinkMean: 0.2, ThinkSigma: 0.6, MaxContext: 384}
			reqs, err := workload.PopulationTrace(sessionClasses, pop, sess, 96, 20240614)
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		},
		check: func(t *testing.T, r *Report) {
			if r.Sessions == nil || r.PrefixHits == 0 {
				t.Fatalf("no sessions (%v) or prefix hits (%d)", r.Sessions, r.PrefixHits)
			}
		},
	}}
}

// TestStreamMetricsMatchesExact pins the retained-vs-streaming
// contract over a table of fleet shapes: both modes run the same
// simulation through the same accumulator, so every integer field and
// token rate is exactly equal, means agree to 1e-9 relative,
// percentiles agree within the sketch's relative error, and the
// retained record table accounts for every arrival.
func TestStreamMetricsMatchesExact(t *testing.T) {
	for _, sc := range contractScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			trace := sc.trace(t)
			run := func(streaming bool) *Report {
				cfg := sc.config(t)
				cfg.StreamMetrics = streaming
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := c.Run(trace)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			exact, got := run(false), run(true)
			sc.check(t, exact)
			checkStreamContract(t, exact, got)
		})
	}
}

// checkStreamContract compares a streaming-metrics report against the
// retained report of the same run.
func checkStreamContract(t *testing.T, exact, got *Report) {
	t.Helper()
	if got.Records != nil {
		t.Fatal("streaming mode must not retain records")
	}
	if len(exact.Records) != exact.Requests {
		t.Fatalf("retained %d records for %d arrivals", len(exact.Records), exact.Requests)
	}
	for i, rec := range exact.Records {
		if rec.ID != i {
			t.Fatalf("record %d carries ID %d", i, rec.ID)
		}
		if !rec.Rejected && (rec.Completed.Before(rec.FirstToken) || !rec.Completed.After(rec.Arrival)) {
			t.Fatalf("record %d neither rejected nor completed: %+v", i, rec)
		}
	}
	if got.Requests != exact.Requests || got.Admitted != exact.Admitted ||
		got.Rejected != exact.Rejected || got.Requeued != exact.Requeued {
		t.Fatalf("counts diverge: %d/%d/%d/%d vs %d/%d/%d/%d",
			got.Requests, got.Admitted, got.Rejected, got.Requeued,
			exact.Requests, exact.Admitted, exact.Rejected, exact.Requeued)
	}
	if len(got.PerReplica) != len(exact.PerReplica) {
		t.Fatalf("%d replicas, want %d", len(got.PerReplica), len(exact.PerReplica))
	}
	for i := range exact.PerReplica {
		if got.PerReplica[i].Requests != exact.PerReplica[i].Requests {
			t.Fatalf("replica %d request count %d, want %d",
				i, got.PerReplica[i].Requests, exact.PerReplica[i].Requests)
		}
	}
	if !reflect.DeepEqual(got.Pools, exact.Pools) {
		t.Fatalf("pools diverge:\n%+v\nvs\n%+v", got.Pools, exact.Pools)
	}
	if got.ThroughputTPS != exact.ThroughputTPS || got.GoodputTPS != exact.GoodputTPS ||
		got.PromptTPS != exact.PromptTPS {
		t.Fatalf("token rates diverge: %v/%v/%v vs %v/%v/%v",
			got.ThroughputTPS, got.GoodputTPS, got.PromptTPS,
			exact.ThroughputTPS, exact.GoodputTPS, exact.PromptTPS)
	}
	if got.Latency.Count != exact.Latency.Count {
		t.Fatalf("latency count %d, want %d", got.Latency.Count, exact.Latency.Count)
	}
	approx := func(name string, g, e, tol float64) {
		t.Helper()
		err := math.Abs(g - e)
		if e != 0 {
			err /= math.Abs(e)
		}
		if err > tol {
			t.Errorf("%s: %g vs exact %g (rel err %g > %g)", name, g, e, err, tol)
		}
	}
	dist := func(name string, g, e metrics.Dist) {
		t.Helper()
		approx(name+" mean", g.MeanSec, e.MeanSec, 1e-9)
		approx(name+" p50", g.P50Sec, e.P50Sec, metrics.SketchRelError)
		approx(name+" p95", g.P95Sec, e.P95Sec, metrics.SketchRelError)
		approx(name+" p99", g.P99Sec, e.P99Sec, metrics.SketchRelError)
	}
	approx("latency mean", got.Latency.MeanSec, exact.Latency.MeanSec, 1e-9)
	approx("latency ttft mean", got.Latency.MeanTTFTSec, exact.Latency.MeanTTFTSec, 1e-9)
	approx("latency tpot mean", got.Latency.MeanTPOTSec, exact.Latency.MeanTPOTSec, 1e-9)
	approx("latency p50", got.Latency.P50Sec, exact.Latency.P50Sec, metrics.SketchRelError)
	approx("latency p95", got.Latency.P95Sec, exact.Latency.P95Sec, metrics.SketchRelError)
	approx("latency p99", got.Latency.P99Sec, exact.Latency.P99Sec, metrics.SketchRelError)
	if len(got.Classes) != len(exact.Classes) {
		t.Fatalf("class count %d, want %d", len(got.Classes), len(exact.Classes))
	}
	for i := range exact.Classes {
		e, g := exact.Classes[i], got.Classes[i]
		ec, gc := e, g
		ec.TTFT, ec.TPOT, ec.Latency = metrics.Dist{}, metrics.Dist{}, metrics.Dist{}
		gc.TTFT, gc.TPOT, gc.Latency = metrics.Dist{}, metrics.Dist{}, metrics.Dist{}
		if !reflect.DeepEqual(ec, gc) {
			t.Errorf("class %s counters diverge:\nexact %+v\naccum %+v", e.Class, ec, gc)
		}
		dist(e.Class+" ttft", g.TTFT, e.TTFT)
		dist(e.Class+" tpot", g.TPOT, e.TPOT)
		dist(e.Class+" latency", g.Latency, e.Latency)
	}
	if (got.Sessions == nil) != (exact.Sessions == nil) {
		t.Fatalf("sessions %v vs %v", got.Sessions, exact.Sessions)
	}
	if exact.Sessions != nil {
		e, g := *exact.Sessions, *got.Sessions
		dist("first-turn ttft", g.FirstTurnTTFT, e.FirstTurnTTFT)
		dist("later-turn ttft", g.LaterTurnTTFT, e.LaterTurnTTFT)
		e.FirstTurnTTFT, e.LaterTurnTTFT = metrics.Dist{}, metrics.Dist{}
		g.FirstTurnTTFT, g.LaterTurnTTFT = metrics.Dist{}, metrics.Dist{}
		if g != e {
			t.Errorf("session counters diverge:\nexact %+v\naccum %+v", e, g)
		}
	}
}

// TestOnRecordStreamsEveryTerminalRecord checks the streaming row
// sink: every request's final record is delivered exactly once, and —
// reordered by ID — the rows match the retained run's records.
func TestOnRecordStreamsEveryTerminalRecord(t *testing.T) {
	exact := func() *Report {
		c, err := New(Config{Replicas: 4, NewReplica: newReplicaFactory(t), Classes: testClasses()})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(testTrace(t, 40))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	var rows []metrics.RequestRecord
	c, err := New(Config{
		Replicas:      4,
		NewReplica:    newReplicaFactory(t),
		Classes:       testClasses(),
		StreamMetrics: true,
		OnRecord:      func(r *metrics.RequestRecord) { rows = append(rows, *r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(testTrace(t, 40)); err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	if !reflect.DeepEqual(rows, exact.Records) {
		t.Fatalf("streamed rows diverge from retained records:\n%+v\nvs\n%+v", rows, exact.Records)
	}
}

// unorderedStream violates the non-decreasing-arrival contract.
type unorderedStream struct{ i int }

func (s *unorderedStream) Next() (workload.Request, bool) {
	if s.i >= 2 {
		return workload.Request{}, false
	}
	r := workload.Request{
		ID: s.i, InputLen: 8, OutputLen: 4,
		Arrival: simtime.Time(int64(2-s.i) * int64(simtime.Second)),
	}
	s.i++
	return r, true
}

// failingStream terminates with an error, like an overflowed generator.
type failingStream struct{}

func (failingStream) Next() (workload.Request, bool) { return workload.Request{}, false }
func (failingStream) Err() error                     { return errors.New("generator failed") }

func TestRunStreamErrors(t *testing.T) {
	c, err := New(Config{Replicas: 2, NewReplica: newReplicaFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunStream(context.Background(), &unorderedStream{}); err == nil {
		t.Fatal("out-of-order stream must fail the run")
	}
	c, err = New(Config{Replicas: 2, NewReplica: newReplicaFactory(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunStream(context.Background(), failingStream{}); err == nil {
		t.Fatal("stream error must fail the run")
	}
}
