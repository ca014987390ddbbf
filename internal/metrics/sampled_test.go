package metrics

import (
	"testing"
	"time"
)

// meter runs n steps through m, step i taking dur(i) of host time, and
// returns the true host time of those steps.
func meter(m *SampledTimes, n int, dur func(i int) ComponentTimes) ComponentTimes {
	var truth ComponentTimes
	for i := 0; i < n; i++ {
		d := dur(i)
		truth.Add(d)
		if m.Sample() {
			m.Record(d)
		}
	}
	return truth
}

// varied is a step cost with no pattern a sampling slip could hide in.
func varied(i int) ComponentTimes {
	return ComponentTimes{
		Scheduler:       time.Duration(i*i%97+1) * time.Microsecond,
		ExecutionEngine: time.Duration(i%13) * time.Millisecond,
		AstraSim:        time.Duration(7*i + 3),
	}
}

func constant(int) ComponentTimes {
	return ComponentTimes{Scheduler: 1500 * time.Nanosecond, GraphConverter: 40 * time.Microsecond}
}

// TestSampledTimesSchedule pins which steps are timed: every one of the
// first 64, then one in each stride of 64, at offset 39k mod 64 in
// stride k (1-based).
func TestSampledTimesSchedule(t *testing.T) {
	var m SampledTimes
	offsets := map[int]int{2: 14, 3: 53, 4: 28, 5: 3, 6: 42}
	for i := 0; i < 5*hostStride+3; i++ {
		want := i < 64 || i%64 == offsets[i/64+1]
		got := m.Sample()
		if got != want {
			t.Fatalf("step %d: timed=%v, want %v", i, got, want)
		}
		if got {
			m.Record(ComponentTimes{})
		}
		if m.steps != int64(i+1) {
			t.Fatalf("step %d: counted %d steps", i, m.steps)
		}
	}
}

// TestSampledTimesExact: runs of at most 64 steps are metered exactly
// whatever the step costs, and runs of any length are metered exactly
// when every step costs the same.
func TestSampledTimesExact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps int
		dur   func(int) ComponentTimes
	}{
		{"no steps", 0, varied},
		{"1 varied step", 1, varied},
		{"63 varied steps", 63, varied},
		{"64 varied steps", 64, varied},
		{"65 constant steps", 65, constant},
		{"127 constant steps", 127, constant},
		{"128 constant steps", 128, constant},
		{"129 constant steps", 129, constant},
		{"5000 constant steps", 5000, constant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m SampledTimes
			truth := meter(&m, tc.steps, tc.dur)
			if got := m.Times(); got != truth {
				t.Fatalf("estimate %+v, want %+v", got, truth)
			}
		})
	}
}

// TestSampledTimesRamp bounds the estimate for step costs that grow
// linearly, a + b·i: each step i after the first 64 is priced at the
// sample of the stride before its own, taken at step s < i, so it falls
// short by exactly b·(i-s). Since i-s is at most 127, the estimate is
// never high, and low by at most a fraction 127·b/a of the true total.
func TestSampledTimesRamp(t *testing.T) {
	const a, b = 2 * time.Microsecond, 3 * time.Nanosecond
	ramp := func(i int) ComponentTimes { return ComponentTimes{Scheduler: a + b*time.Duration(i)} }
	for _, steps := range []int{64, 65, 100, 128, 129, 1000, 100*hostStride + 7} {
		var m SampledTimes
		truth := meter(&m, steps, ramp)
		var short time.Duration
		for i := hostStride; i < steps; i++ {
			q := int64(i/hostStride - 1) // the stride before step i's
			s := q*hostStride + sampleOffset(q)
			short += b * time.Duration(int64(i)-s)
		}
		if got := m.Times().Scheduler; got != truth.Scheduler-short {
			t.Errorf("%d steps: estimate %v, want %v (true %v less %v)",
				steps, got, truth.Scheduler-short, truth.Scheduler, short)
		}
		if a*short > 127*b*truth.Scheduler {
			t.Errorf("%d steps: shortfall %v is over 127·b/a of %v", steps, short, truth.Scheduler)
		}
	}
}

// TestSampledTimesPeriodic: when step costs repeat with period 64, a
// fixed sampling position would price every stride at the same step
// (too high or too low by that step's distance from the mean). The
// rotating position samples each offset once per 64 strides, so the
// estimate is exact after 64 + 64·64 steps and every 64·64 after that,
// whatever the cost pattern.
func TestSampledTimesPeriodic(t *testing.T) {
	x := uint64(7)
	patterns := map[string]func(int) ComponentTimes{
		"one heavy step in 64": func(i int) ComponentTimes {
			d := ComponentTimes{Scheduler: time.Microsecond, AstraSim: 300 * time.Nanosecond}
			if i%hostStride == 0 {
				d.Scheduler *= 40
			}
			return d
		},
		"heavy residues 12 and 51": func(i int) ComponentTimes {
			if r := i % hostStride; r == 12 || r == 51 {
				return ComponentTimes{ExecutionEngine: 90 * time.Microsecond}
			}
			return ComponentTimes{ExecutionEngine: 2 * time.Microsecond}
		},
	}
	var random [hostStride]ComponentTimes
	for i := range random {
		x = x*6364136223846793005 + 1442695040888963407
		random[i] = ComponentTimes{
			Scheduler:       time.Duration(x>>40) % (10 * time.Millisecond),
			ExecutionEngine: time.Duration(x>>54) * time.Microsecond,
			GraphConverter:  time.Duration(x >> 58),
		}
	}
	patterns["random"] = func(i int) ComponentTimes { return random[i%hostStride] }
	for name, dur := range patterns {
		for _, steps := range []int{hostStride + hostStride*hostStride, hostStride + 3*hostStride*hostStride} {
			var m SampledTimes
			truth := meter(&m, steps, dur)
			if got := m.Times(); got != truth {
				t.Errorf("%s, %d steps: estimate %+v, want %+v", name, steps, got, truth)
			}
		}
	}
}

// TestSampledTimesMonotone: snapshots taken between steps, and in the
// middle of a timed step, never decrease, even when step costs swing
// by orders of magnitude.
func TestSampledTimesMonotone(t *testing.T) {
	var m SampledTimes
	x := uint64(1)
	var prev ComponentTimes
	check := func(i int, where string) {
		got := m.Times()
		if got.Scheduler < prev.Scheduler || got.ExecutionEngine < prev.ExecutionEngine ||
			got.GraphConverter < prev.GraphConverter || got.AstraSim < prev.AstraSim {
			t.Fatalf("step %d (%s): estimate fell from %+v to %+v", i, where, prev, got)
		}
		prev = got
	}
	for i := 0; i < 40*hostStride; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		d := ComponentTimes{
			Scheduler:       time.Duration(x>>40) % (10 * time.Millisecond),
			ExecutionEngine: time.Duration(x>>54) * time.Microsecond,
		}
		if m.Sample() {
			check(i, "timed step begun")
			m.Record(d)
		}
		check(i, "after the step")
	}
}

// TestSampledTimesAllocs: metering allocates nothing.
func TestSampledTimesAllocs(t *testing.T) {
	var m SampledTimes
	d := constant(0)
	n := testing.AllocsPerRun(1000, func() {
		if m.Sample() {
			m.Record(d)
		}
		_ = m.Times()
	})
	if n != 0 {
		t.Fatalf("a metered step allocates %v times", n)
	}
}

// TestSampledDurationMatchesTimes: the single-duration meter follows
// the same rule, snapshot for snapshot.
func TestSampledDurationMatchesTimes(t *testing.T) {
	var times SampledTimes
	var dur SampledDuration
	for i := 0; i < 10*hostStride+5; i++ {
		d := varied(i)
		a, b := times.Sample(), dur.Sample()
		if a != b {
			t.Fatalf("step %d: timed %v and %v", i, a, b)
		}
		if a {
			times.Record(d)
			dur.Record(d.Scheduler)
		}
		if got, want := dur.Time(), times.Times().Scheduler; got != want {
			t.Fatalf("step %d: duration meter %v, times meter %v", i, got, want)
		}
	}
}
