package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/simtime"
)

// Class describes one traffic class of a mixed workload: a length
// distribution, a mean arrival rate, and optional per-request SLO
// targets. Classes are the unit of per-class latency/goodput accounting
// in cluster simulations and the unit of mixing in MultiClassTrace.
type Class struct {
	Name string
	Dist LengthDist
	Rate float64 // mean arrival rate in requests/second

	// SLO targets; zero means "no target" (always attained).
	TTFT simtime.Duration // time to first token
	TPOT simtime.Duration // time per output token after the first

	// PrefixLen is the class's shared system-prompt length: every request
	// of the class carries these tokens ahead of its sampled input, and
	// they are identical across the class — the traffic shape prefix
	// caching and prefix-affinity routing exploit. Zero means no shared
	// prefix.
	PrefixLen int
}

// Validate reports an error if the class is malformed. Rates must be
// positive and finite — NaN compares false against everything, so a
// plain c.Rate <= 0 check would wave NaN through and corrupt every
// synthesised arrival time downstream (found by FuzzParseClasses).
func (c Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("workload: class with empty name")
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
		return fmt.Errorf("workload: class %s: rate must be positive and finite, got %g", c.Name, c.Rate)
	}
	if c.TTFT < 0 || c.TPOT < 0 {
		return fmt.Errorf("workload: class %s: negative SLO target", c.Name)
	}
	if c.PrefixLen < 0 {
		return fmt.Errorf("workload: class %s: negative shared-prefix length %d", c.Name, c.PrefixLen)
	}
	return nil
}

// Ramp scales arrival rates over time: the instantaneous rate multiplier
// moves linearly from From at trace start to To at the end of the Over
// window and holds at To afterwards. The zero value is the identity ramp.
// Ramps drive saturation scans: a single trace sweeps the cluster from
// under- to over-load.
type Ramp struct {
	From, To float64
	// Over is the ramp window; 0 means the trace's expected span
	// (n / total rate).
	Over simtime.Duration
}

// identity reports whether the ramp leaves rates unscaled.
func (r Ramp) identity() bool {
	return (r.From == 0 && r.To == 0) || (r.From == 1 && r.To == 1)
}

// Validate reports an error if the ramp is malformed. Multipliers must
// be positive and finite (see Class.Validate for why NaN needs the
// negated comparison).
func (r Ramp) Validate() error {
	if r.identity() {
		return nil
	}
	if !(r.From > 0) || !(r.To > 0) || math.IsInf(r.From, 1) || math.IsInf(r.To, 1) {
		return fmt.Errorf("workload: ramp multipliers must be positive and finite, got %g:%g", r.From, r.To)
	}
	if r.Over < 0 {
		return fmt.Errorf("workload: negative ramp window %v", r.Over)
	}
	return nil
}

// factor returns the rate multiplier at time t for a ramp window of the
// given length.
func (r Ramp) factor(t, over float64) float64 {
	if r.identity() {
		return 1
	}
	if over <= 0 || t >= over {
		return r.To
	}
	if t < 0 {
		t = 0
	}
	return r.From + (r.To-r.From)*t/over
}

// MultiClassTrace draws n requests from a mix of traffic classes. The
// merged arrival process is Poisson at the sum of the class rates (scaled
// by the ramp's instantaneous multiplier); each arrival is assigned to a
// class with probability proportional to its rate and draws lengths from
// that class's distribution. The result is in arrival order with IDs
// 0..n-1, and is deterministic for a given (classes, n, ramp, seed).
//
// This is the collect-from-stream wrapper over MultiClassStream; the
// streaming path and the materialized path share one generator, so the
// same seed yields the same sequence either way.
func MultiClassTrace(classes []Class, n int, ramp Ramp, seed int64) ([]Request, error) {
	s, err := NewMultiClassStream(classes, n, ramp, seed)
	if err != nil {
		return nil, err
	}
	return Collect(s)
}

// ClassNames returns the distinct class names present in the trace, in
// sorted order. Requests without a class contribute the empty string.
func ClassNames(reqs []Request) []string {
	seen := map[string]bool{}
	for _, r := range reqs {
		seen[r.Class] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseDist converts a distribution spec: "sharegpt", "alpaca", or
// "fixed-IN-OUT" (e.g. "fixed-512-128").
func ParseDist(s string) (LengthDist, error) {
	switch {
	case s == "sharegpt":
		return ShareGPT(), nil
	case s == "alpaca":
		return Alpaca(), nil
	case strings.HasPrefix(s, "fixed-"):
		parts := strings.Split(strings.TrimPrefix(s, "fixed-"), "-")
		if len(parts) != 2 {
			return LengthDist{}, fmt.Errorf("workload: fixed distribution wants fixed-IN-OUT, got %q", s)
		}
		in, err1 := strconv.Atoi(parts[0])
		out, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || in <= 0 || out <= 0 {
			return LengthDist{}, fmt.Errorf("workload: fixed distribution wants positive fixed-IN-OUT, got %q", s)
		}
		return Fixed(in, out), nil
	default:
		return LengthDist{}, fmt.Errorf("workload: unknown distribution %q (want sharegpt|alpaca|fixed-IN-OUT)", s)
	}
}

// ParseClass converts one class spec of the form
// "name:dist:rate[:ttft_ms[:tpot_ms[:prefix_toks]]]", e.g.
// "chat:sharegpt:4:1000:80" or "agent:alpaca:2:0:0:512". dist follows
// ParseDist; rate is requests/second; the optional SLO targets are in
// milliseconds (omitted or 0 = no target); prefix_toks is the class's
// shared system-prompt length in tokens (omitted or 0 = none).
func ParseClass(spec string) (Class, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 6 {
		return Class{}, fmt.Errorf("workload: class spec %q: want name:dist:rate[:ttft_ms[:tpot_ms[:prefix_toks]]]", spec)
	}
	c := Class{Name: strings.TrimSpace(parts[0])}
	dist, err := ParseDist(strings.TrimSpace(parts[1]))
	if err != nil {
		return Class{}, fmt.Errorf("workload: class spec %q: %w", spec, err)
	}
	c.Dist = dist
	c.Rate, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil {
		return Class{}, fmt.Errorf("workload: class spec %q: rate: %w", spec, err)
	}
	slos := []*simtime.Duration{&c.TTFT, &c.TPOT}
	for i, p := range parts[3:] {
		if i == 2 { // prefix_toks: a whole token count, not a duration
			c.PrefixLen, err = parsePrefixToks(p)
			if err != nil {
				return Class{}, fmt.Errorf("workload: class spec %q: %w", spec, err)
			}
			break
		}
		ms, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Class{}, fmt.Errorf("workload: class spec %q: SLO target: %w", spec, err)
		}
		if *slos[i], err = scaled([...]string{"ttft_ms", "tpot_ms"}[i], ms, simtime.Millisecond); err != nil {
			return Class{}, fmt.Errorf("workload: class spec %q: %w", spec, err)
		}
	}
	if err := c.Validate(); err != nil {
		return Class{}, err
	}
	return c, nil
}

// parsePrefixToks parses a class spec's prefix_toks field. Token counts
// must be whole, non-negative, and finite; the field is parsed as a
// float first so "nan", "inf", "1e99", and fractional values are
// rejected with a prefix_toks-anchored error instead of silently
// truncating or waving NaN through (a NaN prefix would corrupt every
// synthesised input length downstream).
func parsePrefixToks(p string) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
	if err != nil {
		return 0, fmt.Errorf("prefix_toks: %w", err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f != math.Trunc(f) || f > math.MaxInt32 {
		return 0, fmt.Errorf("prefix_toks: want a whole non-negative token count, got %g", f)
	}
	return int(f), nil
}

// scaled converts x units of unit to a duration. It rejects NaN,
// negative values and values past the picosecond range, naming field:
// Go leaves converting those to an integer implementation-defined.
func scaled(field string, x float64, unit simtime.Duration) (simtime.Duration, error) {
	d := x * float64(unit)
	if !(d >= 0) || d >= math.MaxInt64 {
		return 0, fmt.Errorf("%s: want a finite non-negative value within the simulated range, got %g", field, x)
	}
	return simtime.Duration(d), nil
}

// ParseClasses converts a comma-separated list of class specs (see
// ParseClass), e.g. "chat:sharegpt:3:1000:80,api:alpaca:5:500:50".
func ParseClasses(spec string) ([]Class, error) {
	var out []Class
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := ParseClass(part)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty class list %q", spec)
	}
	return out, nil
}

// ParseRamp converts a ramp spec "from:to[:over_s]", e.g. "0.5:2:60"
// ramps from half to double rate over 60 simulated seconds.
func ParseRamp(spec string) (Ramp, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Ramp{}, fmt.Errorf("workload: ramp spec %q: want from:to[:over_s]", spec)
	}
	var r Ramp
	var err error
	if r.From, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return Ramp{}, fmt.Errorf("workload: ramp spec %q: %w", spec, err)
	}
	if r.To, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return Ramp{}, fmt.Errorf("workload: ramp spec %q: %w", spec, err)
	}
	if len(parts) == 3 {
		over, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return Ramp{}, fmt.Errorf("workload: ramp spec %q: %w", spec, err)
		}
		if r.Over, err = scaled("over_s", over, simtime.Second); err != nil {
			return Ramp{}, fmt.Errorf("workload: ramp spec %q: %w", spec, err)
		}
	}
	if err := r.Validate(); err != nil {
		return Ramp{}, err
	}
	return r, nil
}
