package kvcache

// Property test for the shared-prefix block cache: random-but-valid op
// sequences (prefix admits across a handful of keys, extends, releases,
// whole-sequence evict/reload churn, and explicit idle-block spills) run
// against both prefix modes with unbounded, bounded and zero-page host
// tiers. After every op the deep Invariant() recount runs, a naive
// shadow recounts the page/token accounting from scratch, the prefix
// counters are checked delta-by-delta against what the op reported, and
// the tops of the idle and host heaps are checked against the linear
// LRU scan they replaced (oldestScan). A refused admit must leave the
// whole manager unchanged (snapshot), and so must any number of
// CanAdmitWithPrefix probes.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// The reference LRU oracle: the linear scan the idle and host heaps
// replaced, kept here to pin the heaps' victim choice.

// oldestScan returns the block the pre-heap spill path would pick: it
// lists every live block in the order the block joined the live set
// (the order of the manager's former live-block list), then keeps the
// first block in the wanted state with the smallest lastUse. Idle means
// resident with refcount zero. It fails the test if two live blocks
// share a born stamp, since the order would then be ambiguous.
func oldestScan(t *testing.T, m *Manager, state blockState) *prefixBlock {
	t.Helper()
	var live []*prefixBlock
	for _, g := range m.groups {
		for _, b := range g.blocks {
			if b.state != blockDropped {
				live = append(live, b)
			}
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].born < live[j].born })
	var victim *prefixBlock
	for i, b := range live {
		if i > 0 && live[i-1].born == b.born {
			t.Fatalf("live blocks %d/%q and %d/%q share born stamp %d",
				live[i-1].index, live[i-1].key, b.index, b.key, b.born)
		}
		if b.state != state || b.refcnt != 0 {
			continue
		}
		if victim == nil || b.lastUse < victim.lastUse {
			victim = b
		}
	}
	return victim
}

// heapTop returns the top of a block heap, nil when empty.
func heapTop(h *blockHeap) *prefixBlock {
	if h.len() == 0 {
		return nil
	}
	return h.s[0]
}

// checkLRUOracle asserts the heap tops are the scan's victims.
func checkLRUOracle(t *testing.T, m *Manager, step int, op string) {
	t.Helper()
	for _, c := range []struct {
		name  string
		h     *blockHeap
		state blockState
	}{{"idle", &m.idle, blockResident}, {"host", &m.host, blockHost}} {
		if got, want := heapTop(c.h), oldestScan(t, m, c.state); got != want {
			t.Fatalf("step %d (%s): %s heap top %s, linear scan picks %s",
				step, op, c.name, blockName(got), blockName(want))
		}
	}
}

func blockName(b *prefixBlock) string {
	if b == nil {
		return "none"
	}
	return fmt.Sprintf("%d/%q (lastUse %d, born %d)", b.index, b.key, b.lastUse, b.born)
}

// snapshot renders everything reachable from m: scalars by value, struct
// fields in declaration order, maps in sorted key order, slices by their
// elements (not capacity), and pointers by content on first visit and
// by visit number afterwards. Two snapshots are equal exactly when the
// managers' states are, including which sequences share which blocks
// and every heap slot.
func snapshot(m *Manager) string {
	buf := make([]byte, 0, 16<<10)
	seen := make(map[uintptr]int, 512)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				buf = append(buf, "nil"...)
				return
			}
			if n, ok := seen[v.Pointer()]; ok {
				buf = append(buf, '*')
				buf = strconv.AppendInt(buf, int64(n), 10)
				return
			}
			seen[v.Pointer()] = len(seen)
			buf = append(buf, '&')
			walk(v.Elem())
		case reflect.Struct:
			buf = append(buf, '{')
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
				buf = append(buf, ' ')
			}
			buf = append(buf, '}')
		case reflect.Slice:
			buf = append(buf, '[')
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
				buf = append(buf, ' ')
			}
			buf = append(buf, ']')
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].Kind() == reflect.String {
					return keys[i].String() < keys[j].String()
				}
				return keys[i].Int() < keys[j].Int()
			})
			buf = append(buf, "map["...)
			for _, k := range keys {
				walk(k)
				buf = append(buf, ':')
				walk(v.MapIndex(k))
				buf = append(buf, ' ')
			}
			buf = append(buf, ']')
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			buf = strconv.AppendInt(buf, v.Int(), 10)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			buf = strconv.AppendUint(buf, v.Uint(), 10)
		case reflect.Bool:
			buf = strconv.AppendBool(buf, v.Bool())
		case reflect.String:
			buf = strconv.AppendQuote(buf, v.String())
		case reflect.Func:
			buf = strconv.AppendBool(buf, v.IsNil())
		default:
			panic(fmt.Sprintf("snapshot: unhandled kind %s", v.Kind()))
		}
	}
	walk(reflect.ValueOf(m))
	return string(buf)
}

// pshadowSeq is the naive model of one prefix-admitted sequence.
type pshadowSeq struct {
	id           int
	private      int // tokens owned by the sequence itself
	prefixTokens int // page-aligned tokens held via shared blocks
	key          string
	onHost       bool
	order        int
}

type pshadow struct {
	cfg       Config
	total     int
	seqs      map[int]*pshadowSeq
	evictions int64
	reloads   int64
}

func (s *pshadow) pagesFor(tokens int) int {
	return (tokens + s.cfg.PageTokens - 1) / s.cfg.PageTokens
}

func (s *pshadow) aligned(prefixLen, tokens, keyLen int) int {
	if keyLen == 0 || prefixLen <= 0 {
		return 0
	}
	if prefixLen > tokens {
		prefixLen = tokens
	}
	return prefixLen - prefixLen%s.cfg.PageTokens
}

func (s *pshadow) residentIDs() []int {
	var out []int
	for id, q := range s.seqs {
		if !q.onHost {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func (s *pshadow) allIDs() []int {
	out := make([]int, 0, len(s.seqs))
	for id := range s.seqs {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// minPrefixBlocks returns the fewest device+host blocks the manager can
// legally hold: for each key, the longest prefix any live sequence
// references (referenced blocks may never be dropped).
func (s *pshadow) minPrefixBlocks() int {
	longest := map[string]int{}
	for _, q := range s.seqs {
		if q.prefixTokens > longest[q.key] {
			longest[q.key] = q.prefixTokens
		}
	}
	n := 0
	for _, toks := range longest {
		n += toks / s.cfg.PageTokens
	}
	return n
}

func checkPrefixShadow(t *testing.T, m *Manager, s *pshadow, step int, op string) {
	t.Helper()
	if err := m.Invariant(); err != nil {
		t.Fatalf("step %d (%s): %v", step, op, err)
	}
	st := m.Stats()
	if st.TotalPages != s.total {
		t.Fatalf("step %d (%s): total pages %d, want %d", step, op, st.TotalPages, s.total)
	}
	var seqPages, residentSeqs, evictedSeqs, residentTokens, fragTokens int
	for _, q := range s.seqs {
		if q.onHost {
			evictedSeqs++
			continue
		}
		residentSeqs++
		residentTokens += q.private
		pages := s.pagesFor(q.private)
		seqPages += pages
		fragTokens += pages*s.cfg.PageTokens - q.private
	}
	if want := s.total - seqPages - st.PrefixBlocks; st.FreePages != want {
		t.Fatalf("step %d (%s): free pages %d, want %d (seq pages %d, prefix blocks %d)",
			step, op, st.FreePages, want, seqPages, st.PrefixBlocks)
	}
	if st.ResidentSeqs != residentSeqs || st.EvictedSeqs != evictedSeqs {
		t.Fatalf("step %d (%s): resident/evicted %d/%d, want %d/%d",
			step, op, st.ResidentSeqs, st.EvictedSeqs, residentSeqs, evictedSeqs)
	}
	if st.ResidentTokens != residentTokens || st.InternalFragTokens != fragTokens {
		t.Fatalf("step %d (%s): resident/frag tokens %d/%d, want %d/%d",
			step, op, st.ResidentTokens, st.InternalFragTokens, residentTokens, fragTokens)
	}
	if st.Evictions != s.evictions || st.Reloads != s.reloads {
		t.Fatalf("step %d (%s): evictions/reloads %d/%d, want %d/%d",
			step, op, st.Evictions, st.Reloads, s.evictions, s.reloads)
	}
	if min := s.minPrefixBlocks(); st.PrefixBlocks < min {
		t.Fatalf("step %d (%s): %d device prefix blocks below the %d referenced",
			step, op, st.PrefixBlocks, min)
	}
}

// prefixHostTiers are the host-tier shapes the property tests cover.
// HostBytes 0 means unbounded; a positive budget below one page rounds
// to zero pages, so every spill drops.
var prefixHostTiers = []struct {
	name  string
	pages func(rng *rand.Rand) int64 // host budget in pages; -1 = half a page
}{
	{"unbounded", func(*rand.Rand) int64 { return 0 }},
	{"bounded", func(rng *rand.Rand) int64 { return 1 + int64(rng.Intn(8)) }},
	{"zero-page", func(*rand.Rand) int64 { return -1 }},
}

// newPrefixPropertyManager draws a random manager config from rng with
// the given host-tier budget in pages (0 unbounded, -1 half a page).
func newPrefixPropertyManager(t *testing.T, rng *rand.Rand, mode PrefixMode, hostPages int64) (*Manager, *pshadow) {
	t.Helper()
	cfg := Config{
		Policy:        Paged,
		Prefix:        mode,
		PageTokens:    1 + rng.Intn(16),
		BytesPerToken: 1 + int64(rng.Intn(1024)),
		MaxSeqLen:     32 + rng.Intn(256),
	}
	pages := 16 + rng.Intn(128)
	pageBytes := int64(cfg.PageTokens) * cfg.BytesPerToken
	cfg.CapacityBytes = int64(pages) * pageBytes
	switch {
	case hostPages > 0:
		cfg.HostBytes = hostPages * pageBytes
	case hostPages < 0:
		cfg.HostBytes = pageBytes / 2
		if cfg.HostBytes == 0 {
			cfg.HostBytes = 1
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hostPages < 0 && m.hostCap != 0 {
		t.Fatalf("half-page host budget gave %d host pages", m.hostCap)
	}
	return m, &pshadow{cfg: cfg, total: m.TotalPages(), seqs: map[int]*pshadowSeq{}}
}

// prefixRun is one seeded property-test run: a fresh manager, its
// shadow, and the generator that drives its ops.
type prefixRun struct {
	m   *Manager
	sh  *pshadow
	rng *rand.Rand
}

// forEachPrefixShape calls fn for the device mode and for the tiered
// mode under every host-tier shape, 8 seeds each. Each call of newRun
// rebuilds the same seeded manager and op generator from scratch.
func forEachPrefixShape(t *testing.T, fn func(t *testing.T, seed int64, newRun func() prefixRun)) {
	run := func(t *testing.T, mode PrefixMode, pages func(*rand.Rand) int64) {
		for seed := int64(0); seed < 8; seed++ {
			fn(t, seed, func() prefixRun {
				rng := rand.New(rand.NewSource(seed))
				m, sh := newPrefixPropertyManager(t, rng, mode, pages(rng))
				return prefixRun{m, sh, rng}
			})
		}
	}
	t.Run(PrefixDevice.String(), func(t *testing.T) {
		run(t, PrefixDevice, func(*rand.Rand) int64 { return 0 })
	})
	t.Run(PrefixTiered.String(), func(t *testing.T) {
		for _, tier := range prefixHostTiers {
			t.Run("host="+tier.name, func(t *testing.T) { run(t, PrefixTiered, tier.pages) })
		}
	})
}

func TestManagerPrefixRandomOpsProperty(t *testing.T) {
	keys := []string{"", "alpha", "beta", "gamma"}
	forEachPrefixShape(t, func(t *testing.T, _ int64, newRun func() prefixRun) {
		r := newRun()
		nextID := 0
		for step := 0; step < 1500; step++ {
			op := runPrefixRandomOp(t, r.rng, r.m, r.sh, keys, &nextID)
			checkPrefixShadow(t, r.m, r.sh, step, op)
			checkLRUOracle(t, r.m, step, op)
		}
	})
}

// TestCanAdmitWithPrefixIsPure runs each op sequence twice in lockstep,
// the second time with a few extra CanAdmitWithPrefix probes (drawn from
// their own generator) before every op. The probes must change nothing:
// both managers stay snapshot-identical, so every later admit, spill
// and host drop picks the same blocks.
func TestCanAdmitWithPrefixIsPure(t *testing.T) {
	keys := []string{"", "alpha", "beta", "gamma"}
	forEachPrefixShape(t, func(t *testing.T, seed int64, newRun func() prefixRun) {
		plain, probed := newRun(), newRun()
		probes := rand.New(rand.NewSource(seed + 1000))
		plainID, probedID := 0, 0
		for step := 0; step < 300; step++ {
			for k := probes.Intn(4); k > 0; k-- {
				tokens := 1 + probes.Intn(probed.sh.cfg.MaxSeqLen)
				probed.m.CanAdmitWithPrefix(tokens, keys[probes.Intn(len(keys))], probes.Intn(tokens+1))
			}
			op := runPrefixRandomOp(t, plain.rng, plain.m, plain.sh, keys, &plainID)
			probedOp := runPrefixRandomOp(t, probed.rng, probed.m, probed.sh, keys, &probedID)
			if op != probedOp {
				t.Fatalf("step %d: op %q, probed twin ran %q", step, op, probedOp)
			}
			if snapshot(plain.m) != snapshot(probed.m) {
				t.Fatalf("step %d (%s): probes changed the manager", step, op)
			}
		}
	})
}

// runPrefixRandomOp applies one random valid op to manager and shadow.
func runPrefixRandomOp(t *testing.T, rng *rand.Rand, m *Manager, sh *pshadow, keys []string, nextID *int) string {
	t.Helper()
	switch rng.Intn(6) {
	case 0, 1: // AdmitWithPrefix (weighted: admits drive everything else)
		id := *nextID
		tokens := 1 + rng.Intn(sh.cfg.MaxSeqLen)
		key := keys[rng.Intn(len(keys))]
		prefixLen := rng.Intn(sh.cfg.MaxSeqLen + 1)
		if prefixLen > tokens {
			prefixLen = tokens
		}
		before := m.Stats()
		if !m.CanAdmitWithPrefix(tokens, key, prefixLen) {
			// A refused admit must fail without mutating anything.
			snap := snapshot(m)
			if _, err := m.AdmitWithPrefix(id, tokens, key, prefixLen); err == nil {
				t.Fatalf("admit %d accepted after CanAdmitWithPrefix refused", id)
			}
			if after := snapshot(m); after != snap {
				t.Fatalf("failed admit %d mutated the manager:\n before %s\n after  %s", id, snap, after)
			}
			return "admit-refused"
		}
		res, err := m.AdmitWithPrefix(id, tokens, key, prefixLen)
		if err != nil {
			t.Fatalf("admit %d (%d tokens, prefix %d/%q): %v", id, tokens, prefixLen, key, err)
		}
		aligned := sh.aligned(prefixLen, tokens, len(key))
		if res.CachedTokens+res.NewTokens != aligned {
			t.Fatalf("admit %d: cached %d + new %d != aligned prefix %d",
				id, res.CachedTokens, res.NewTokens, aligned)
		}
		if aligned > 0 && m.PrefixCachedTokens(key) < aligned {
			t.Fatalf("admit %d: key %q caches %d tokens, want >= %d",
				id, key, m.PrefixCachedTokens(key), aligned)
		}
		after := m.Stats()
		if d := after.PrefixSpills - before.PrefixSpills; d != int64(res.SpillOps) {
			t.Fatalf("admit %d: spill counter moved %d, result says %d", id, d, res.SpillOps)
		}
		if d := after.PrefixSpillBytes - before.PrefixSpillBytes; d != res.SpillBytes {
			t.Fatalf("admit %d: spill bytes moved %d, result says %d", id, d, res.SpillBytes)
		}
		if d := after.PrefixReloads - before.PrefixReloads; d != int64(res.ReloadOps) {
			t.Fatalf("admit %d: reload counter moved %d, result says %d", id, d, res.ReloadOps)
		}
		if d := after.PrefixReloadBytes - before.PrefixReloadBytes; d != res.ReloadBytes {
			t.Fatalf("admit %d: reload bytes moved %d, result says %d", id, d, res.ReloadBytes)
		}
		if d := after.PrefixTokensSaved - before.PrefixTokensSaved; d != int64(res.CachedTokens) {
			t.Fatalf("admit %d: tokens-saved moved %d, result says %d", id, d, res.CachedTokens)
		}
		wantLookup := int64(0)
		if aligned > 0 {
			wantLookup = 1
		}
		if d := after.PrefixLookups - before.PrefixLookups; d != wantLookup {
			t.Fatalf("admit %d: lookup counter moved %d, want %d", id, d, wantLookup)
		}
		*nextID++
		sh.seqs[id] = &pshadowSeq{id: id, private: tokens - aligned, prefixTokens: aligned, key: key, order: id}
		return fmt.Sprintf("admit %d", id)
	case 2: // Extend a resident sequence's private tail
		res := sh.residentIDs()
		if len(res) == 0 {
			return "extend-skipped"
		}
		id := res[rng.Intn(len(res))]
		q := sh.seqs[id]
		n := 1 + rng.Intn(16)
		if q.prefixTokens+q.private+n > sh.cfg.MaxSeqLen {
			return "extend-skipped"
		}
		if sh.pagesFor(q.private+n)-sh.pagesFor(q.private) > m.FreePages() {
			return "extend-skipped"
		}
		if _, err := m.Extend(id, n); err != nil {
			t.Fatalf("extend %d by %d: %v", id, n, err)
		}
		q.private += n
		return fmt.Sprintf("extend %d", id)
	case 3: // Release: blocks must stay cached for later admits
		ids := sh.allIDs()
		if len(ids) == 0 {
			return "release-skipped"
		}
		id := ids[rng.Intn(len(ids))]
		q := sh.seqs[id]
		cachedBefore := m.PrefixCachedTokens(q.key)
		if err := m.Release(id); err != nil {
			t.Fatalf("release %d: %v", id, err)
		}
		if got := m.PrefixCachedTokens(q.key); q.key != "" && got != cachedBefore {
			t.Fatalf("release %d changed key %q cache %d -> %d", id, q.key, cachedBefore, got)
		}
		delete(sh.seqs, id)
		return fmt.Sprintf("release %d", id)
	case 4: // SpillIdlePrefix
		n := 1 + rng.Intn(3)
		before := m.Stats()
		bytes, freed := m.SpillIdlePrefix(n)
		after := m.Stats()
		if freed > n {
			t.Fatalf("spill freed %d > requested %d", freed, n)
		}
		if d := after.FreePages - before.FreePages; d != freed {
			t.Fatalf("spill freed %d pages but free moved %d", freed, d)
		}
		if d := before.PrefixBlocks - after.PrefixBlocks; d != freed {
			t.Fatalf("spill freed %d pages but device blocks moved %d", freed, d)
		}
		if d := after.PrefixSpillBytes - before.PrefixSpillBytes; d != bytes {
			t.Fatalf("spill moved %d bytes, counter moved %d", bytes, d)
		}
		return fmt.Sprintf("spill %d", freed)
	default: // EvictLast / Reload churn on whole sequences
		if rng.Intn(2) == 0 {
			id, _, ok := m.EvictLast()
			if !ok {
				if len(sh.residentIDs()) != 0 {
					t.Fatal("EvictLast refused with residents present")
				}
				return "evict-skipped"
			}
			q := sh.seqs[id]
			if q == nil || q.onHost {
				t.Fatalf("EvictLast picked %d, not a resident", id)
			}
			q.onHost = true
			sh.evictions++
			return fmt.Sprintf("evict %d", id)
		}
		oldest, ok := m.OldestEvicted()
		if !ok || !m.CanReload(oldest) {
			return "reload-skipped"
		}
		if _, err := m.Reload(oldest); err != nil {
			t.Fatalf("reload %d: %v", oldest, err)
		}
		sh.seqs[oldest].onHost = false
		sh.reloads++
		return fmt.Sprintf("reload %d", oldest)
	}
}
