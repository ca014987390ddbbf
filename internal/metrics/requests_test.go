package metrics

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func sec(s float64) simtime.Time { return simtime.AtSeconds(s) }

// SummarizeRequests is the reference oracle for the production request
// accounting (RequestAccumulator plus ExactDistributions): a direct
// rollup of records into per-class summaries, ordered by class name,
// with exact nearest-rank distributions. slos maps class name to its
// objective (missing classes get the zero SLO, i.e. no objective); end
// is the simulated span the throughput and goodput rates are computed
// over.
func SummarizeRequests(records []RequestRecord, slos map[string]SLO, end simtime.Time) []ClassSummary {
	byClass := map[string]*ClassSummary{}
	names := []string{}
	get := func(name string) *ClassSummary {
		if s, ok := byClass[name]; ok {
			return s
		}
		s := &ClassSummary{Class: name, SLO: slos[name]}
		byClass[name] = s
		names = append(names, name)
		return s
	}

	ttft := map[string][]float64{}
	tpot := map[string][]float64{}
	lat := map[string][]float64{}
	attainedTokens := map[string]int64{}

	for _, r := range records {
		s := get(r.Class)
		s.Requests++
		if r.Rejected {
			s.Rejected++
			switch r.RejectReason {
			case "admission":
				s.RejectedAdmission++
			case "no-replica":
				s.RejectedNoReplica++
			case "unservable":
				s.RejectedUnservable++
			case "failure":
				s.RejectedFailure++
			}
			continue
		}
		s.Completed++
		s.OutputTokens += int64(r.OutputLen)
		s.CachedTokens += int64(r.CachedTokens)
		ttft[r.Class] = append(ttft[r.Class], r.TTFT().Seconds())
		lat[r.Class] = append(lat[r.Class], r.Latency().Seconds())
		if r.OutputLen > 1 {
			tpot[r.Class] = append(tpot[r.Class], r.TPOT().Seconds())
		}
		if r.MeetsSLO(s.SLO) {
			s.SLOAttained++
			attainedTokens[r.Class] += int64(r.OutputLen)
		}
	}

	endSec := end.Seconds()
	sort.Strings(names)
	out := make([]ClassSummary, 0, len(names))
	for _, name := range names {
		s := byClass[name]
		s.TTFT = NewDist(ttft[name])
		s.TPOT = NewDist(tpot[name])
		s.Latency = NewDist(lat[name])
		if endSec > 0 {
			s.GoodputTPS = float64(attainedTokens[name]) / endSec
			s.ThroughputTPS = float64(s.OutputTokens) / endSec
		}
		out = append(out, *s)
	}
	return out
}

func TestRequestRecordDerived(t *testing.T) {
	r := RequestRecord{
		Arrival: sec(1), FirstToken: sec(2), Completed: sec(6), OutputLen: 5,
	}
	if r.TTFT() != simtime.Second {
		t.Fatalf("ttft %v", r.TTFT())
	}
	if r.TPOT() != simtime.Second {
		t.Fatalf("tpot %v", r.TPOT()) // (6-2)/(5-1)
	}
	if r.Latency() != 5*simtime.Second {
		t.Fatalf("latency %v", r.Latency())
	}
	single := RequestRecord{Arrival: 0, FirstToken: sec(1), Completed: sec(1), OutputLen: 1}
	if single.TPOT() != 0 {
		t.Fatal("single-token TPOT must be zero")
	}
}

func TestMeetsSLO(t *testing.T) {
	r := RequestRecord{Arrival: 0, FirstToken: sec(1), Completed: sec(5), OutputLen: 5}
	// TTFT = 1s, TPOT = 1s.
	cases := []struct {
		slo  SLO
		want bool
	}{
		{SLO{}, true}, // no objective always attains
		{SLO{TTFT: 2 * simtime.Second}, true},
		{SLO{TTFT: 500 * simtime.Millisecond}, false},
		{SLO{TPOT: simtime.Second}, true},
		{SLO{TPOT: 999 * simtime.Millisecond}, false},
		{SLO{TTFT: 2 * simtime.Second, TPOT: 500 * simtime.Millisecond}, false},
	}
	for _, c := range cases {
		if got := r.MeetsSLO(c.slo); got != c.want {
			t.Errorf("slo %+v: got %v", c.slo, got)
		}
	}
	rej := RequestRecord{Rejected: true}
	if rej.MeetsSLO(SLO{}) {
		t.Fatal("rejected requests never attain")
	}
}

func TestSummarizeRequests(t *testing.T) {
	records := []RequestRecord{
		// chat: two completions (TTFT 1s and 3s), one rejection.
		{ID: 0, Class: "chat", Replica: 0, OutputLen: 11, Arrival: 0, FirstToken: sec(1), Completed: sec(2)},
		{ID: 1, Class: "chat", Replica: 1, OutputLen: 21, Arrival: 0, FirstToken: sec(3), Completed: sec(4)},
		{ID: 2, Class: "chat", Replica: -1, OutputLen: 9, Arrival: sec(1), Rejected: true},
		// api: one completion, no SLO configured.
		{ID: 3, Class: "api", Replica: 0, OutputLen: 1, Arrival: 0, FirstToken: sec(1), Completed: sec(1)},
	}
	slos := map[string]SLO{"chat": {TTFT: 2 * simtime.Second}}
	sums := SummarizeRequests(records, slos, sec(10))
	if len(sums) != 2 || sums[0].Class != "api" || sums[1].Class != "chat" {
		t.Fatalf("summaries %+v", sums)
	}
	chat := sums[1]
	if chat.Requests != 3 || chat.Rejected != 1 || chat.Completed != 2 {
		t.Fatalf("chat counts %+v", chat)
	}
	if chat.SLOAttained != 1 {
		t.Fatalf("chat attained %d", chat.SLOAttained)
	}
	if chat.TTFT.P50Sec != 1 || chat.TTFT.P99Sec != 3 {
		t.Fatalf("chat ttft %+v", chat.TTFT)
	}
	// Goodput counts only the SLO-attained request's 11 tokens over 10s;
	// throughput counts all 32 completed tokens.
	if chat.GoodputTPS != 1.1 || chat.ThroughputTPS != 3.2 {
		t.Fatalf("chat goodput %v throughput %v", chat.GoodputTPS, chat.ThroughputTPS)
	}
	if f := chat.AttainedFrac(); f != 1.0/3 {
		t.Fatalf("attained frac %v", f)
	}
	api := sums[0]
	if api.SLOAttained != 1 || api.GoodputTPS != 0.1 {
		t.Fatalf("api (no SLO) must fully attain: %+v", api)
	}
}

func TestRequestTSVWriters(t *testing.T) {
	records := []RequestRecord{
		{ID: 0, Class: "chat", Replica: 2, InputLen: 10, OutputLen: 5,
			Arrival: 0, FirstToken: sec(1), Completed: sec(3)},
		{ID: 1, Replica: -1, InputLen: 8, OutputLen: 4, Arrival: sec(1),
			Rejected: true, RejectReason: "admission"},
	}
	var buf bytes.Buffer
	if err := WriteRequestsTSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %q", buf.String())
	}
	if !strings.HasPrefix(lines[0], "id\tclass\treplica") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], "\t0\t-") || !strings.HasSuffix(lines[2], "\t1\tadmission") {
		t.Fatalf("rejected flags: %q / %q", lines[1], lines[2])
	}

	buf.Reset()
	sums := SummarizeRequests(records, nil, sec(10))
	if sums[0].RejectedAdmission != 1 || sums[0].RejectedFailure != 0 {
		t.Fatalf("reject breakdown %+v", sums[0])
	}
	if err := WriteClassSummaryTSV(&buf, sums); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + "" class + "chat"
		t.Fatalf("class rows %q", buf.String())
	}
	if !strings.HasPrefix(lines[0], "class\trequests\trejected\trej_admission\trej_no_replica\trej_unservable\trej_failure") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "-\t1\t1\t1\t0\t0\t0") {
		t.Fatalf("classless row %q", lines[1])
	}
}

func TestNewDist(t *testing.T) {
	d := NewDist([]float64{4, 1, 3, 2})
	if d.MeanSec != 2.5 || d.P50Sec != 2 || d.P95Sec != 4 || d.P99Sec != 4 {
		t.Fatalf("dist %+v", d)
	}
	if (NewDist(nil) != Dist{}) {
		t.Fatal("empty dist must be zero")
	}
}
