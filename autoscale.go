package llmservingsim

// Public surface of the dynamic-fleet layer: fleet events (failures,
// planned scales, graceful drains) in the grammar shared with the CLI's
// -fleet-events flag, and the scheduled-autoscaler step plan.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// FleetEventKind discriminates fleet events.
type FleetEventKind int

const (
	// FleetFail kills a replica at At: it stops serving instantly and
	// its outstanding requests are requeued through the router onto
	// surviving replicas (or rejected, when Reject is set).
	FleetFail FleetEventKind = iota
	// FleetScale is a planned capacity change to Replicas committed
	// instances (clamped to the scenario's min/max bounds).
	FleetScale
	// FleetDrain gracefully removes one replica: it stops receiving
	// traffic, finishes in-flight work, then retires.
	FleetDrain
)

var fleetEventKinds = newEnum[FleetEventKind]("FleetEventKind", "fleet event", "", nil,
	enumConst[workload.FleetEventKind]{"fail", nil, workload.EventFail},
	enumConst[workload.FleetEventKind]{"scale", nil, workload.EventScale},
	enumConst[workload.FleetEventKind]{"drain", nil, workload.EventDrain})

func (k FleetEventKind) String() string { return fleetEventKinds.str(k) }

func (k FleetEventKind) internal() workload.FleetEventKind { return fleetEventKinds.internal(k) }

// FleetEvent is one scheduled change to a cluster scenario's fleet.
type FleetEvent struct {
	// At is the event time in simulated time since trace start.
	At   time.Duration
	Kind FleetEventKind

	// Replica is the target replica slot for fail/drain events.
	Replica int
	// Replicas is the target committed fleet size for scale events.
	Replicas int
	// Reject makes a failure reject the replica's outstanding requests
	// instead of requeueing them.
	Reject bool
}

// String renders the event in the -fleet-events grammar.
func (e FleetEvent) String() string { return e.internal().String() }

func (e FleetEvent) internal() workload.FleetEvent {
	return workload.FleetEvent{
		Time:     simtime.Time(simtime.FromStd(e.At)),
		Kind:     e.Kind.internal(),
		Replica:  e.Replica,
		Replicas: e.Replicas,
		Reject:   e.Reject,
	}
}

// ParseFleetEvents converts a fleet-event spec — the grammar shared by
// the llmservingsim CLI's -fleet-events flag and
// ClusterScenario.FleetEvents. A spec is a comma-separated list of
//
//	fail@T_S:REPLICA[:requeue|reject]
//	scale@T_S:REPLICAS
//	drain@T_S:REPLICA
//
// with T_S in simulated seconds, e.g. "fail@30:2,scale@60:8,drain@90:0".
// The result is sorted by time.
func ParseFleetEvents(spec string) ([]FleetEvent, error) {
	events, err := workload.ParseFleetEvents(spec)
	if err != nil {
		return nil, err
	}
	out := make([]FleetEvent, len(events))
	for i, ev := range events {
		out[i] = FleetEvent{
			At:       simtime.Duration(ev.Time).Std(),
			Kind:     fleetEventKinds.fromInternal(ev.Kind),
			Replica:  ev.Replica,
			Replicas: ev.Replicas,
			Reject:   ev.Reject,
		}
	}
	return out, nil
}

// FleetEventsString renders events in the -fleet-events grammar
// (comma-separated).
func FleetEventsString(events []FleetEvent) string {
	s := ""
	for i, ev := range events {
		if i > 0 {
			s += ","
		}
		s += ev.String()
	}
	return s
}

// ScalePoint is one step of a scheduled autoscaling plan: from At on,
// the fleet targets Replicas committed instances.
type ScalePoint struct {
	At       time.Duration
	Replicas int
}

// ParseScaleSchedule converts a scheduled-autoscaler step plan — the
// grammar of the llmservingsim CLI's -scale-schedule flag: a
// comma-separated list of T_S:REPLICAS steps, e.g. "0:2,60:8,120:2"
// (2 replicas from the start, 8 from t=60s, back to 2 from t=120s).
func ParseScaleSchedule(spec string) ([]ScalePoint, error) {
	var out []ScalePoint
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		secStr, repStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("llmservingsim: scale schedule step %d %q: want T_S:REPLICAS", i+1, part)
		}
		sec, err := strconv.ParseFloat(strings.TrimSpace(secStr), 64)
		// The bound is the picosecond simtime range, not time.Duration's
		// nanoseconds: step times convert to simtime internally, and a
		// lax bound would wrap them negative there.
		if err != nil || !(sec >= 0) || sec > float64(math.MaxInt64)/float64(simtime.Second) {
			return nil, fmt.Errorf("llmservingsim: scale schedule step %d %q: bad time (want finite, non-negative seconds within the simulated range)", i+1, part)
		}
		replicas, err := strconv.Atoi(strings.TrimSpace(repStr))
		if err != nil || replicas < 1 {
			return nil, fmt.Errorf("llmservingsim: scale schedule step %d %q: replicas must be a positive integer", i+1, part)
		}
		out = append(out, ScalePoint{At: time.Duration(sec * float64(time.Second)), Replicas: replicas})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("llmservingsim: empty scale schedule %q", spec)
	}
	return out, nil
}

// FleetPoint is one interval of the fleet-size timeline: the lifecycle
// composition holding from TimeSec until the next point.
type FleetPoint struct {
	TimeSec      float64
	Active       int
	Provisioning int
	Draining     int

	// Pool split of Active for disaggregated fleets (both zero on a
	// unified fleet).
	ActivePrefill int
	ActiveDecode  int
}

// Committed returns the replicas consuming capacity at this point.
func (p FleetPoint) Committed() int { return p.Active + p.Provisioning + p.Draining }

// Autoscalers lists the available autoscaling policies (excluding
// "none", which is the absence of one).
func Autoscalers() []string { return cluster.Autoscalers() }

// fleetEventsInternal converts the public events, validating each.
func fleetEventsInternal(events []FleetEvent) ([]workload.FleetEvent, error) {
	out := make([]workload.FleetEvent, len(events))
	for i, ev := range events {
		out[i] = ev.internal()
		if err := out[i].Validate(); err != nil {
			return nil, fmt.Errorf("llmservingsim: fleet event %d: %w", i+1, err)
		}
	}
	return out, nil
}
