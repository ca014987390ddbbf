package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func testClasses() []Class {
	return []Class{
		{Name: "chat", Dist: ShareGPT(), Rate: 3, TTFT: simtime.Second, TPOT: 80 * simtime.Millisecond},
		{Name: "api", Dist: Alpaca(), Rate: 9, TTFT: 500 * simtime.Millisecond},
	}
}

func TestMultiClassTraceMix(t *testing.T) {
	reqs, err := MultiClassTrace(testClasses(), 4000, Ramp{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i, r := range reqs {
		if r.ID != i {
			t.Fatal("IDs not in arrival order")
		}
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not sorted")
		}
		counts[r.Class]++
	}
	// Classes mixed proportionally to rate: api ~3x chat.
	ratio := float64(counts["api"]) / float64(counts["chat"])
	if math.Abs(ratio-3) > 0.45 {
		t.Fatalf("api/chat ratio %.2f, want ~3", ratio)
	}
	// Merged rate ~12 req/s within 10%.
	rate := float64(len(reqs)) / reqs[len(reqs)-1].Arrival.Seconds()
	if math.Abs(rate-12)/12 > 0.10 {
		t.Fatalf("empirical rate %.2f, want ~12", rate)
	}
}

func TestMultiClassTraceDeterministic(t *testing.T) {
	a, _ := MultiClassTrace(testClasses(), 100, Ramp{From: 0.5, To: 2}, 42)
	b, _ := MultiClassTrace(testClasses(), 100, Ramp{From: 0.5, To: 2}, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the trace")
		}
	}
	c, _ := MultiClassTrace(testClasses(), 100, Ramp{From: 0.5, To: 2}, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestMultiClassTraceRamp(t *testing.T) {
	// Ramping 1 -> 4 should compress later inter-arrival gaps: the last
	// quarter of arrivals spans far less time than the first quarter.
	classes := []Class{{Name: "c", Dist: Fixed(8, 8), Rate: 10}}
	reqs, err := MultiClassTrace(classes, 4000, Ramp{From: 1, To: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := len(reqs) / 4
	firstSpan := reqs[q].Arrival.Sub(reqs[0].Arrival).Seconds()
	lastSpan := reqs[len(reqs)-1].Arrival.Sub(reqs[len(reqs)-1-q].Arrival).Seconds()
	if lastSpan >= firstSpan*0.6 {
		t.Fatalf("ramp did not accelerate arrivals: first quarter %.2fs, last quarter %.2fs", firstSpan, lastSpan)
	}
}

func TestMultiClassTraceErrors(t *testing.T) {
	good := testClasses()
	if _, err := MultiClassTrace(good, 0, Ramp{}, 1); err == nil {
		t.Fatal("n=0 must fail")
	}
	if _, err := MultiClassTrace(nil, 10, Ramp{}, 1); err == nil {
		t.Fatal("no classes must fail")
	}
	if _, err := MultiClassTrace([]Class{{Name: "x", Rate: 0}}, 10, Ramp{}, 1); err == nil {
		t.Fatal("zero rate must fail")
	}
	if _, err := MultiClassTrace([]Class{good[0], good[0]}, 10, Ramp{}, 1); err == nil {
		t.Fatal("duplicate class must fail")
	}
	if _, err := MultiClassTrace(good, 10, Ramp{From: -1, To: 1}, 1); err == nil {
		t.Fatal("negative ramp must fail")
	}
}

func TestRampFactor(t *testing.T) {
	r := Ramp{From: 1, To: 3}
	if f := r.factor(0, 10); f != 1 {
		t.Fatalf("start factor %v", f)
	}
	if f := r.factor(5, 10); f != 2 {
		t.Fatalf("midpoint factor %v", f)
	}
	if f := r.factor(20, 10); f != 3 {
		t.Fatalf("post-window factor %v", f)
	}
	if f := (Ramp{}).factor(5, 10); f != 1 {
		t.Fatalf("identity factor %v", f)
	}
}

func TestParseDist(t *testing.T) {
	for spec, name := range map[string]string{
		"sharegpt":      "sharegpt",
		"alpaca":        "alpaca",
		"fixed-512-128": "fixed-512-128",
	} {
		d, err := ParseDist(spec)
		if err != nil || d.Name != name {
			t.Fatalf("ParseDist(%q) = %v, %v", spec, d.Name, err)
		}
	}
	for _, bad := range []string{"", "bogus", "fixed-", "fixed-1", "fixed-a-b", "fixed-0-5", "fixed-1-2-3"} {
		if _, err := ParseDist(bad); err == nil {
			t.Errorf("ParseDist(%q) must fail", bad)
		}
	}
}

func TestParseClasses(t *testing.T) {
	cs, err := ParseClasses("chat:sharegpt:3:1000:80, api:alpaca:5:500")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("got %d classes", len(cs))
	}
	chat := cs[0]
	if chat.Name != "chat" || chat.Rate != 3 || chat.TTFT != simtime.Second || chat.TPOT != 80*simtime.Millisecond {
		t.Fatalf("chat parsed as %+v", chat)
	}
	if cs[1].TTFT != 500*simtime.Millisecond || cs[1].TPOT != 0 {
		t.Fatalf("api SLO parsed as %+v", cs[1])
	}
	agent, err := ParseClass("agent:alpaca:2:1000:80:512")
	if err != nil || agent.PrefixLen != 512 || agent.TPOT != 80*simtime.Millisecond {
		t.Fatalf("prefix class parsed as %+v, %v", agent, err)
	}
	for _, bad := range []string{"", "x", "x:sharegpt", "x:bogus:1", "x:alpaca:nope", ":alpaca:1", "x:alpaca:0", "x:alpaca:1:a", "x:alpaca:1:1:nan", "x:alpaca:1:1:1:nan", "x:alpaca:1:1:1:+inf", "x:alpaca:1:1:1:-8", "x:alpaca:1:1:1:1.5", "x:alpaca:1:1:1:1:1"} {
		if _, err := ParseClasses(bad); err == nil {
			t.Errorf("ParseClasses(%q) must fail", bad)
		}
	}
}

func TestParseRamp(t *testing.T) {
	r, err := ParseRamp("0.5:2:60")
	if err != nil {
		t.Fatal(err)
	}
	if r.From != 0.5 || r.To != 2 || r.Over != 60*simtime.Second {
		t.Fatalf("parsed %+v", r)
	}
	if r, err = ParseRamp("1:4"); err != nil || r.Over != 0 {
		t.Fatalf("two-part ramp: %+v, %v", r, err)
	}
	for _, bad := range []string{"", "1", "a:2", "1:b", "1:2:c", "1:2:-5", "-1:2", "1:2:3:4"} {
		if _, err := ParseRamp(bad); err == nil {
			t.Errorf("ParseRamp(%q) must fail", bad)
		}
	}
}

func TestClassNames(t *testing.T) {
	reqs := []Request{{Class: "b"}, {Class: "a"}, {Class: "b"}, {}}
	got := ClassNames(reqs)
	if strings.Join(got, ",") != ",a,b" {
		t.Fatalf("class names %v", got)
	}
}

// TestParsersRejectOutOfRangeFloats: every float field that becomes a
// duration rejects NaN, infinities, values past the picosecond range
// and negative values at parse time, and names the field. Converting
// such a float to an integer is implementation-defined in Go (NaN
// becomes 0 on arm64 and MinInt64 on amd64), so no later check can be
// relied on to catch it.
func TestParsersRejectOutOfRangeFloats(t *testing.T) {
	fields := []struct {
		name  string
		parse func(v string) error
	}{
		{"arrival_time_ms", func(v string) error {
			_, err := ReadTSV(strings.NewReader("input_toks\toutput_toks\tarrival_time_ms\n8\t4\t" + v + "\n"))
			return err
		}},
		{"ttft_ms", func(v string) error { _, err := ParseClass("chat:sharegpt:2:" + v); return err }},
		{"tpot_ms", func(v string) error { _, err := ParseClass("chat:sharegpt:2:100:" + v); return err }},
		{"over_s", func(v string) error { _, err := ParseRamp("1:2:" + v); return err }},
	}
	for _, f := range fields {
		if err := f.parse("1.5"); err != nil {
			t.Fatalf("%s: in-range value rejected: %v", f.name, err)
		}
		for _, v := range []string{"NaN", "+Inf", "-Inf", "1e300", "-1"} {
			err := f.parse(v)
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s=%s: error %v does not name the field", f.name, v, err)
			}
		}
	}
}
