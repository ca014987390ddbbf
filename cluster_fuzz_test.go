package llmservingsim

// Native fuzz target for the cluster configuration contract: Validate
// and the build Run performs must agree on every scenario. Either both
// accept it, or both reject it with a *ConfigError on the same public
// field, and neither panics.

import (
	"io"
	"testing"
	"time"

	"repro/internal/metrics"
)

func FuzzClusterScenarioValidate(f *testing.F) {
	// Arguments: replicas, fleet shape, autoscaler, Min/Max and
	// the four pool bounds, provision-delay sign, fleet-event mask,
	// telemetry, RequestsOut, admission policy and limit.
	f.Add(uint8(4), uint8(0), uint8(0), int8(1), int8(1), int8(1), int8(1), int8(1), int8(1), false, uint8(0), false, false, uint8(0), int8(0))
	f.Add(uint8(4), uint8(5), uint8(2), int8(3), int8(6), int8(2), int8(4), int8(2), int8(4), false, uint8(3), true, false, uint8(1), int8(8))
	f.Add(uint8(4), uint8(0), uint8(0), int8(1), int8(1), int8(1), int8(1), int8(1), int8(1), false, uint8(0), false, true, uint8(0), int8(0))
	f.Add(uint8(3), uint8(6), uint8(1), int8(1), int8(1), int8(4), int8(3), int8(0), int8(1), true, uint8(4), false, false, uint8(1), int8(-1))
	f.Add(uint8(2), uint8(3), uint8(5), int8(0), int8(9), int8(1), int8(1), int8(1), int8(1), false, uint8(7), true, true, uint8(0), int8(0))

	cfg := DefaultConfig()
	cfg.Model = "gpt2"
	cfg.NPUs = 2
	cfg.Parallelism = ParallelismTensor
	cfg.PerfModel = PerfModelRoofline
	trace, err := MultiClassTrace(apiClasses(), 4, Ramp{}, 1)
	if err != nil {
		f.Fatal(err)
	}
	tel := NewTelemetry(TelemetryConfig{EventCapacity: 16, DecisionCapacity: 16})
	bound := func(b int8) int { return int(uint8(b)%10) - 1 } // -1..8

	f.Fuzz(func(t *testing.T, replicas, shape, scaler uint8,
		minR, maxR, pMin, pMax, dMin, dMax int8, negDelay bool, events uint8,
		telemetry, rows bool, admission uint8, limit int8) {
		n := int(replicas % 7)
		sc := ClusterScenario{
			Config:             cfg,
			Classes:            apiClasses(),
			Trace:              trace,
			Autoscaler:         AutoscalePolicy(scaler % 4),
			ScaleQueueTarget:   4,
			ScaleSLOTarget:     0.9,
			ScaleSchedule:      []ScalePoint{{At: 0, Replicas: 2}},
			MinReplicas:        bound(minR),
			MaxReplicas:        bound(maxR),
			PrefillMinReplicas: bound(pMin),
			PrefillMaxReplicas: bound(pMax),
			DecodeMinReplicas:  bound(dMin),
			DecodeMaxReplicas:  bound(dMax),
			ProvisionDelay:     100 * time.Millisecond,
			Admission:          AdmissionPolicy(admission % 3),
			AdmissionLimit:     int64(limit),
		}
		if scaler&4 == 0 {
			sc.ScaleTick = 100 * time.Millisecond
		}
		if negDelay {
			sc.ProvisionDelay = -sc.ProvisionDelay
		}
		// The fleet shape: homogeneous, a prefill/decode split, one pool
		// only, or unified replicas mixed with a decode pool.
		p := int(shape/4) % (n + 1)
		switch shape % 4 {
		case 0:
			sc.Replicas = n
		case 1:
			sc.Fleet = []ReplicaSpec{{Count: p, Role: RolePrefill}, {Count: n - p, Role: RoleDecode}}
		case 2:
			sc.Fleet = []ReplicaSpec{{Count: p, Role: RolePrefill}, {Count: n - p, Role: RolePrefill}}
		case 3:
			sc.Fleet = []ReplicaSpec{{Count: p}, {Count: n - p, Role: RoleDecode}}
		}
		for kind, ev := range []FleetEvent{
			{At: time.Second, Kind: FleetFail, Replica: 0},
			{At: time.Second, Kind: FleetDrain, Replica: 1},
			{At: time.Second, Kind: FleetScale, Replicas: 3},
		} {
			if events&(1<<kind) != 0 {
				sc.FleetEvents = append(sc.FleetEvents, ev)
			}
		}
		if telemetry {
			sc.Telemetry = tel
		}
		// Run wires RequestsOut through a row writer; build takes it the
		// same way.
		var onRecord func(*metrics.RequestRecord)
		if rows {
			sc.RequestsOut = io.Discard
			onRecord = metrics.NewRequestsTSVWriter(io.Discard).WriteRow
		}

		verr := sc.Validate()
		_, berr := sc.build(onRecord)
		if verr == nil && berr == nil {
			return
		}
		ve, vok := AsConfigError(verr)
		be, bok := AsConfigError(berr)
		if !vok || !bok || ve.Field != be.Field {
			t.Fatalf("Validate and build disagree on %+v:\nValidate: %v\nbuild:    %v", sc, verr, berr)
		}
		if !scenarioField(ve.Field) {
			t.Fatalf("Field %q names no ClusterScenario field or Config.<field> (%v)", ve.Field, verr)
		}
	})
}
