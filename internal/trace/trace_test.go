package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/simtime"
)

func item(kind engine.Kind, sub, seq int, d simtime.Duration, opKind model.OpKind, req int) Item {
	return Item{
		Op:       model.Op{Kind: opKind, Name: "op", ReqID: req, M: 1, N: 1, K: 1, Heads: 1},
		Engine:   kind.String(),
		Kind:     kind,
		Latency:  d,
		SubBatch: sub,
		Seq:      seq,
	}
}

// The map-based reference oracle: the operator scheduler as first
// written, kept here to pin the production Scheduler's dispatch rule.

// Scheduled is an item placed on the merged timeline.
type Scheduled struct {
	Item
	Start simtime.Duration // offset from the schedule origin
	End   simtime.Duration
}

// Schedule is the merged, ordered timeline of one iteration on one
// (possibly heterogeneous) device.
type Schedule struct {
	Items    []Scheduled
	Makespan simtime.Duration
	// Busy time per accelerator class, for utilisation accounting.
	Busy map[engine.Kind]simtime.Duration
}

// Greedy merges engine traces into one timeline: among ready items it
// dispatches the one that can start earliest, ties broken by sub-batch.
// Input may arrive in any order; chains are sorted by Seq.
func Greedy(items []Item) Schedule {
	if len(items) == 0 {
		return Schedule{Busy: map[engine.Kind]simtime.Duration{}}
	}

	// Group items into per-sub-batch chains, each sorted by program order.
	chains := map[int][]Item{}
	for _, it := range items {
		chains[it.SubBatch] = append(chains[it.SubBatch], it)
	}
	chainIDs := make([]int, 0, len(chains))
	for id := range chains {
		sort.SliceStable(chains[id], func(a, b int) bool { return chains[id][a].Seq < chains[id][b].Seq })
		chainIDs = append(chainIDs, id)
	}
	sort.Ints(chainIDs)

	head := map[int]int{}                            // next unscheduled index per chain
	chainFree := map[int]simtime.Duration{}          // when the chain's previous op ends
	engineFree := map[engine.Kind]simtime.Duration{} // when each engine becomes idle

	sched := Schedule{
		Items: make([]Scheduled, 0, len(items)),
		Busy:  map[engine.Kind]simtime.Duration{},
	}
	for remaining := len(items); remaining > 0; remaining-- {
		bestChain := -1
		var bestStart simtime.Duration
		for _, id := range chainIDs {
			idx := head[id]
			if idx >= len(chains[id]) {
				continue
			}
			it := chains[id][idx]
			start := simtime.Max(chainFree[id], engineFree[it.Kind])
			if bestChain == -1 || start < bestStart ||
				(start == bestStart && id < bestChain) {
				bestChain, bestStart = id, start
			}
		}
		it := chains[bestChain][head[bestChain]]
		head[bestChain]++
		end := bestStart + it.Latency
		chainFree[bestChain] = end
		engineFree[it.Kind] = end
		sched.Busy[it.Kind] += it.Latency
		if end > sched.Makespan {
			sched.Makespan = end
		}
		sched.Items = append(sched.Items, Scheduled{Item: it, Start: bestStart, End: end})
	}
	return sched
}

// Serial places all items back-to-back in (SubBatch, Seq) order: the
// no-overlap baseline a homogeneous single engine produces.
func Serial(items []Item) Schedule {
	sorted := append([]Item(nil), items...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].SubBatch != sorted[b].SubBatch {
			return sorted[a].SubBatch < sorted[b].SubBatch
		}
		return sorted[a].Seq < sorted[b].Seq
	})
	sched := Schedule{
		Items: make([]Scheduled, 0, len(sorted)),
		Busy:  map[engine.Kind]simtime.Duration{},
	}
	var t simtime.Duration
	for _, it := range sorted {
		sched.Items = append(sched.Items, Scheduled{Item: it, Start: t, End: t + it.Latency})
		sched.Busy[it.Kind] += it.Latency
		t += it.Latency
	}
	sched.Makespan = t
	return sched
}

// Utilization returns the busy fraction of the given engine kind over the
// schedule makespan.
func (s Schedule) Utilization(k engine.Kind) float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.Busy[k]) / float64(s.Makespan)
}

// Validate checks schedule invariants: no two items overlap on the same
// engine kind, and program order holds within each sub-batch.
func (s Schedule) Validate() error {
	byKind := map[engine.Kind][]Scheduled{}
	byChain := map[int][]Scheduled{}
	for _, it := range s.Items {
		byKind[it.Kind] = append(byKind[it.Kind], it)
		byChain[it.SubBatch] = append(byChain[it.SubBatch], it)
	}
	for k, items := range byKind {
		sort.Slice(items, func(a, b int) bool { return items[a].Start < items[b].Start })
		for i := 1; i < len(items); i++ {
			if items[i].Start < items[i-1].End {
				return fmt.Errorf("trace: overlap on %s: %q [%v,%v) vs %q [%v,%v)",
					k, items[i-1].Op.Name, items[i-1].Start, items[i-1].End,
					items[i].Op.Name, items[i].Start, items[i].End)
			}
		}
	}
	for id, items := range byChain {
		sort.Slice(items, func(a, b int) bool { return items[a].Seq < items[b].Seq })
		for i := 1; i < len(items); i++ {
			if items[i].Start < items[i-1].End {
				return fmt.Errorf("trace: sub-batch %d order violation: %q starts %v before %q ends %v",
					id, items[i].Op.Name, items[i].Start, items[i-1].Op.Name, items[i-1].End)
			}
		}
	}
	return nil
}

// place runs the production Scheduler over items and returns its
// placements as a Schedule the reference Validate and Utilization read.
func place(t *testing.T, s *Scheduler, items []Item) Schedule {
	t.Helper()
	makespan, err := s.Makespan(items)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{Makespan: makespan, Busy: map[engine.Kind]simtime.Duration{}}
	for i, it := range items {
		start := s.Start(i)
		sched.Items = append(sched.Items, Scheduled{Item: it, Start: start, End: start + it.Latency})
		sched.Busy[it.Kind] += it.Latency
	}
	return sched
}

func TestSerialOrder(t *testing.T) {
	items := []Item{
		item(engine.NPU, 0, 1, 10, model.OpProj, -1),
		item(engine.NPU, 0, 0, 5, model.OpQKVGen, -1),
	}
	s := Serial(items)
	if s.Makespan != 15 {
		t.Fatalf("makespan %v", s.Makespan)
	}
	if s.Items[0].Op.Kind != model.OpQKVGen || s.Items[0].Start != 0 || s.Items[1].Start != 5 {
		t.Fatal("serial order broken")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyOverlapsSubBatches: the headline property — two sub-batches
// alternating NPU and PIM work overlap, beating serial execution
// (NeuPIMs-style interleaving).
func TestGreedyOverlapsSubBatches(t *testing.T) {
	var items []Item
	for sb := 0; sb < 2; sb++ {
		items = append(items,
			item(engine.NPU, sb, 0, 100, model.OpQKVGen, -1),
			item(engine.PIM, sb, 1, 100, model.OpScore, sb),
			item(engine.NPU, sb, 2, 100, model.OpFFN1, -1),
		)
	}
	g := place(t, &Scheduler{}, items)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	serial := Serial(items)
	if g.Makespan >= serial.Makespan {
		t.Fatalf("greedy %v should beat serial %v", g.Makespan, serial.Makespan)
	}
	// Perfect interleave: NPU busy 400, PIM slots inside -> makespan 400+100.
	if g.Makespan > 500 {
		t.Fatalf("greedy makespan %v, want <= 500", g.Makespan)
	}
}

func TestGreedySingleChainEqualsSerial(t *testing.T) {
	items := []Item{
		item(engine.NPU, 0, 0, 7, model.OpQKVGen, -1),
		item(engine.PIM, 0, 1, 11, model.OpScore, 0),
		item(engine.NPU, 0, 2, 13, model.OpFFN1, -1),
	}
	g := place(t, &Scheduler{}, items)
	if g.Makespan != Serial(items).Makespan {
		t.Fatalf("single chain: greedy %v vs serial %v", g.Makespan, Serial(items).Makespan)
	}
}

func TestGreedyEmpty(t *testing.T) {
	var s Scheduler
	if m, err := s.Makespan(nil); m != 0 || err != nil {
		t.Fatalf("empty schedule: makespan %v, err %v", m, err)
	}
}

func TestUtilization(t *testing.T) {
	items := []Item{
		item(engine.NPU, 0, 0, 100, model.OpQKVGen, -1),
		item(engine.PIM, 1, 0, 50, model.OpScore, 0),
	}
	g := place(t, &Scheduler{}, items)
	if u := g.Utilization(engine.NPU); u != 1.0 {
		t.Fatalf("NPU utilization %v (makespan %v)", u, g.Makespan)
	}
	if u := g.Utilization(engine.PIM); u != 0.5 {
		t.Fatalf("PIM utilization %v", u)
	}
	var empty Schedule
	if empty.Utilization(engine.NPU) != 0 {
		t.Fatal("empty utilization")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	bad := Schedule{
		Items: []Scheduled{
			{Item: item(engine.NPU, 0, 0, 10, model.OpQKVGen, -1), Start: 0, End: 10},
			{Item: item(engine.NPU, 1, 0, 10, model.OpFFN1, -1), Start: 5, End: 15},
		},
	}
	if bad.Validate() == nil {
		t.Fatal("overlap on one engine must fail validation")
	}
}

func TestValidateCatchesOrderViolation(t *testing.T) {
	bad := Schedule{
		Items: []Scheduled{
			{Item: item(engine.NPU, 0, 1, 10, model.OpFFN1, -1), Start: 0, End: 10},
			{Item: item(engine.PIM, 0, 0, 10, model.OpScore, 0), Start: 5, End: 15},
		},
	}
	if bad.Validate() == nil {
		t.Fatal("program-order violation must fail validation")
	}
}

func TestSplitSegments(t *testing.T) {
	items := []Item{
		item(engine.NPU, 0, 0, 5, model.OpLayerNorm, -1),
		item(engine.NPU, 0, 1, 10, model.OpQKVGen, -1),
		item(engine.PIM, 0, 2, 3, model.OpScore, 0),
		item(engine.PIM, 0, 3, 1, model.OpSoftmax, 0),
		item(engine.PIM, 0, 4, 4, model.OpAttend, 0),
		item(engine.PIM, 0, 5, 2, model.OpScore, 1),
		item(engine.PIM, 0, 6, 1, model.OpSoftmax, 1),
		item(engine.PIM, 0, 7, 3, model.OpAttend, 1),
		item(engine.NPU, 0, 8, 20, model.OpProj, -1),
		item(engine.NPU, 0, 9, 30, model.OpFFN1, -1),
	}
	seg := SplitSegments(items)
	if seg.Pre != 15 {
		t.Fatalf("pre %v", seg.Pre)
	}
	if seg.Attn[0] != 8 || seg.Attn[1] != 6 {
		t.Fatalf("attn %v", seg.Attn)
	}
	if seg.Post != 50 {
		t.Fatalf("post %v", seg.Post)
	}
	if seg.AttnTotal() != 14 {
		t.Fatalf("attn total %v", seg.AttnTotal())
	}
}

// Property: greedy makespan is sandwiched between the critical chain and
// the serial sum, and the schedule is always valid.
func TestGreedyBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scheduler
	f := func() bool {
		nChains := 1 + rng.Intn(4)
		var items []Item
		var total simtime.Duration
		chainSum := map[int]simtime.Duration{}
		for c := 0; c < nChains; c++ {
			n := 1 + rng.Intn(6)
			for i := 0; i < n; i++ {
				kind := engine.NPU
				if rng.Intn(2) == 0 {
					kind = engine.PIM
				}
				d := simtime.Duration(1 + rng.Intn(100))
				items = append(items, item(kind, c, i, d, model.OpQKVGen, -1))
				total += d
				chainSum[c] += d
			}
		}
		g := place(t, &s, items)
		if g.Validate() != nil {
			return false
		}
		var longest simtime.Duration
		for _, d := range chainSum {
			if d > longest {
				longest = d
			}
		}
		return g.Makespan >= longest && g.Makespan <= total
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomChains builds 1–4 sub-batch chains over all three engine kinds,
// grouped and in Seq order as the execution engine phase emits them.
// Sub-batch IDs have gaps, and latencies come from a small set so
// equal-start ties between chains are common.
func randomChains(rng *rand.Rand) []Item {
	kinds := []engine.Kind{engine.NPU, engine.PIM, engine.GPU}
	var items []Item
	sub := rng.Intn(3)
	for range 1 + rng.Intn(4) {
		seq := rng.Intn(3)
		for range 1 + rng.Intn(8) {
			d := simtime.Duration(10 * (1 + rng.Intn(3)))
			items = append(items, item(kinds[rng.Intn(len(kinds))], sub, seq, d, model.OpQKVGen, -1))
			seq += 1 + rng.Intn(2)
		}
		sub += 1 + rng.Intn(2)
	}
	return items
}

// TestSchedulerMatchesReference: on random traces the production
// Scheduler places every item exactly where the map-based reference
// Greedy does, and every placement passes the reference Validate.
func TestSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s Scheduler
	for trial := range 2000 {
		items := randomChains(rng)
		got := place(t, &s, items)
		want := Greedy(items)
		if got.Makespan != want.Makespan {
			t.Fatalf("trial %d: makespan %v, reference %v", trial, got.Makespan, want.Makespan)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		type key struct{ sub, seq int }
		wantStart := map[key]simtime.Duration{}
		for _, it := range want.Items {
			wantStart[key{it.SubBatch, it.Seq}] = it.Start
		}
		for _, it := range got.Items {
			if ws := wantStart[key{it.SubBatch, it.Seq}]; it.Start != ws {
				t.Fatalf("trial %d: sub-batch %d seq %d starts %v, reference %v",
					trial, it.SubBatch, it.Seq, it.Start, ws)
			}
		}
	}
}

func TestSchedulerRejectsBadInput(t *testing.T) {
	ok := func() []Item {
		return []Item{
			item(engine.NPU, 0, 0, 10, model.OpQKVGen, -1),
			item(engine.PIM, 0, 1, 10, model.OpScore, 0),
			item(engine.NPU, 1, 0, 10, model.OpQKVGen, -1),
			item(engine.PIM, 1, 1, 10, model.OpScore, 1),
		}
	}
	cases := map[string]func([]Item) []Item{
		"sub-batches interleaved": func(it []Item) []Item { it[1], it[2] = it[2], it[1]; return it },
		"sub-batches descending":  func(it []Item) []Item { return append(it[2:], it[:2]...) },
		"seq out of order":        func(it []Item) []Item { it[0], it[1] = it[1], it[0]; return it },
		"seq repeated":            func(it []Item) []Item { it[3].Seq = 0; return it },
		"negative latency":        func(it []Item) []Item { it[2].Latency = -1; return it },
		"unknown engine kind":     func(it []Item) []Item { it[1].Kind = engine.NumKinds; return it },
	}
	var s Scheduler
	if _, err := s.Makespan(ok()); err != nil {
		t.Fatalf("well-formed input rejected: %v", err)
	}
	for name, mangle := range cases {
		if _, err := s.Makespan(mangle(ok())); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSchedulerAllocationFree(t *testing.T) {
	items := randomChains(rand.New(rand.NewSource(5)))
	var s Scheduler
	if _, err := s.Makespan(items); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = s.Makespan(items) }); n != 0 {
		t.Fatalf("warmed Makespan allocates %v times per call", n)
	}
}
