package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simtime"
)

// FleetView is the autoscaler-visible cluster state at one evaluation
// tick. Queue signals aggregate over routable (active) replicas;
// interval counters cover completions since the previous tick.
type FleetView struct {
	Time simtime.Time

	// Lifecycle composition of the fleet at the tick.
	Active       int // serving traffic
	Provisioning int // cold-starting, will serve once ready
	Draining     int // finishing in-flight work, no longer routable

	// Load signals over the active replicas.
	QueuedRequests int
	QueuedTokens   int64

	// SLO attainment over the last tick interval: completions and how
	// many of them met their class SLO. Zero completions means "no
	// signal" — attainment-driven policies hold the fleet.
	IntervalCompleted int
	IntervalAttained  int
}

// Committed returns the replicas consuming (or about to consume)
// serving capacity: active plus provisioning. Scaling decisions target
// this count; draining replicas are already on their way out.
func (v FleetView) Committed() int { return v.Active + v.Provisioning }

// Autoscaler decides the fleet's target size. Implementations must be
// deterministic: the desired count depends only on the view and prior
// calls, never on host state.
type Autoscaler interface {
	Name() string
	// Desired returns the target committed replica count. The cluster
	// clamps it to [MinReplicas, MaxReplicas] before applying.
	Desired(v FleetView) int
}

// Autoscaler policy names, as accepted by NewAutoscaler.
const (
	ScaleQueueDepth = "queue-depth"
	ScaleSLOTarget  = "slo-target"
	ScaleScheduled  = "scheduled"
)

// SchedulePoint is one step of a scheduled autoscaling plan: from Time
// on, the fleet targets Replicas committed instances.
type SchedulePoint struct {
	Time     simtime.Time
	Replicas int
}

// AutoscalerConfig parameterises the autoscaling policies; each policy
// reads only its own fields.
type AutoscalerConfig struct {
	// QueueTarget is the queue-depth policy's target queued requests per
	// active replica.
	QueueTarget int

	// AttainTarget and AttainHigh bound the slo-target policy's
	// hysteresis band: interval attainment below AttainTarget scales up
	// one replica, at or above AttainHigh scales down one, and anywhere
	// inside [AttainTarget, AttainHigh) holds the fleet (no flapping).
	// AttainHigh defaults to 1 (scale down only when every completion
	// attained).
	AttainTarget float64
	AttainHigh   float64

	// Schedule is the scheduled policy's step plan.
	Schedule []SchedulePoint
}

var autoscalerFactories = map[string]func(cfg AutoscalerConfig) (Autoscaler, error){
	ScaleQueueDepth: func(cfg AutoscalerConfig) (Autoscaler, error) {
		if cfg.QueueTarget <= 0 {
			return nil, fmt.Errorf("cluster: queue-depth autoscaler needs a positive per-replica queue target")
		}
		return queueDepth{target: cfg.QueueTarget}, nil
	},
	ScaleSLOTarget: func(cfg AutoscalerConfig) (Autoscaler, error) {
		low, high := cfg.AttainTarget, cfg.AttainHigh
		if high == 0 {
			high = 1
		}
		if !(low > 0) || low > 1 || math.IsNaN(low) {
			return nil, fmt.Errorf("cluster: slo-target autoscaler needs an attainment target in (0,1], got %g", low)
		}
		if high < low || high > 1 || math.IsNaN(high) {
			return nil, fmt.Errorf("cluster: slo-target hysteresis bound must be in [target,1], got %g", high)
		}
		return sloTarget{low: low, high: high}, nil
	},
	ScaleScheduled: func(cfg AutoscalerConfig) (Autoscaler, error) {
		if len(cfg.Schedule) == 0 {
			return nil, fmt.Errorf("cluster: scheduled autoscaler needs a non-empty schedule")
		}
		points := append([]SchedulePoint(nil), cfg.Schedule...)
		sort.SliceStable(points, func(i, j int) bool { return points[i].Time < points[j].Time })
		for _, p := range points {
			if p.Time < 0 {
				return nil, fmt.Errorf("cluster: scheduled autoscaler step at negative time %v", p.Time)
			}
			if p.Replicas < 1 {
				return nil, fmt.Errorf("cluster: scheduled autoscaler step at %v targets %d replicas (want >= 1)", p.Time, p.Replicas)
			}
		}
		return scheduled{points: points}, nil
	},
}

// NewAutoscaler builds the named autoscaling policy.
func NewAutoscaler(name string, cfg AutoscalerConfig) (Autoscaler, error) {
	f, ok := autoscalerFactories[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown autoscaler %q (have %v)", name, Autoscalers())
	}
	return f(cfg)
}

// Autoscalers returns the autoscaler names, sorted.
func Autoscalers() []string {
	names := make([]string, 0, len(autoscalerFactories))
	for name := range autoscalerFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// queueDepth sizes the fleet so each active replica holds at most
// target queued requests: desired = ceil(queued / target). An empty
// queue scales to the minimum (the clamp restores the floor).
type queueDepth struct{ target int }

func (q queueDepth) Name() string { return ScaleQueueDepth }

func (q queueDepth) Desired(v FleetView) int {
	return (v.QueuedRequests + q.target - 1) / q.target
}

// sloTarget steps the fleet by one replica per tick on SLO-attainment
// pressure, with a hysteresis band to prevent flapping: below low it
// scales up, at or above high it scales down (so the default high of 1
// still shrinks a fleet attaining perfectly), inside [low, high) — or
// with no completions to judge — it holds.
type sloTarget struct{ low, high float64 }

func (s sloTarget) Name() string { return ScaleSLOTarget }

func (s sloTarget) Desired(v FleetView) int {
	cur := v.Committed()
	if v.IntervalCompleted == 0 {
		return cur
	}
	attained := float64(v.IntervalAttained) / float64(v.IntervalCompleted)
	switch {
	case attained < s.low:
		return cur + 1
	case attained >= s.high:
		return cur - 1
	default:
		return cur
	}
}

// scheduled follows a pre-planned step function of fleet sizes: the
// latest step at or before the tick wins; before the first step the
// fleet holds its current size.
type scheduled struct{ points []SchedulePoint }

func (s scheduled) Name() string { return ScaleScheduled }

func (s scheduled) Desired(v FleetView) int {
	desired := v.Committed()
	for _, p := range s.points {
		if p.Time.After(v.Time) {
			break
		}
		desired = p.Replicas
	}
	return desired
}
