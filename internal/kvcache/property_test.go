package kvcache

// Property test: drive long random-but-valid op sequences against the
// manager, asserting Invariant() after every op and cross-checking
// Stats() and Evicted() against a naive shadow model that recounts from
// scratch. This is the safety net under the heap/incremental-counter
// implementation — any drift between the O(1) counters and the true
// state, or any heap-order bug, surfaces within a few hundred ops.
// Extends go through the ID form or a SeqRef handle taken at admission,
// and after every op each handle — of live, evicted, reloaded and
// released sequences alike — must agree with the ID form and the shadow.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// shadowSeq is the naive model of one sequence.
type shadowSeq struct {
	id     int
	tokens int
	onHost bool
	order  int
}

type shadow struct {
	cfg       Config
	total     int
	seqs      map[int]*shadowSeq
	order     []int // ids in admission order
	evictions int64
	reloads   int64

	refs map[int]SeqRef // every handle taken at admission, released ones included
}

func (s *shadow) pagesFor(tokens int) int {
	if s.cfg.Policy == MaxLen {
		return (s.cfg.MaxSeqLen + s.cfg.PageTokens - 1) / s.cfg.PageTokens
	}
	return (tokens + s.cfg.PageTokens - 1) / s.cfg.PageTokens
}

// stats recounts the expected Stats from scratch.
func (s *shadow) stats() Stats {
	st := Stats{TotalPages: s.total, FreePages: s.total, Evictions: s.evictions, Reloads: s.reloads}
	for _, q := range s.seqs {
		if q.onHost {
			st.EvictedSeqs++
			continue
		}
		pages := s.pagesFor(q.tokens)
		st.FreePages -= pages
		st.ResidentSeqs++
		st.ResidentTokens += q.tokens
		st.InternalFragTokens += pages*s.cfg.PageTokens - q.tokens
	}
	return st
}

// evicted returns host-resident ids in admission order.
func (s *shadow) evicted() []int {
	var out []int
	for _, id := range s.order {
		if q, ok := s.seqs[id]; ok && q.onHost {
			out = append(out, id)
		}
	}
	return out
}

// residentIDs returns resident ids sorted for deterministic picking.
func (s *shadow) residentIDs() []int {
	var out []int
	for id, q := range s.seqs {
		if !q.onHost {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func (s *shadow) allIDs() []int {
	out := make([]int, 0, len(s.seqs))
	for id := range s.seqs {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func checkAgainstShadow(t *testing.T, m *Manager, s *shadow, step int, op string) {
	t.Helper()
	if err := m.Invariant(); err != nil {
		t.Fatalf("step %d (%s): %v", step, op, err)
	}
	want := s.stats()
	if got := m.Stats(); got != want {
		t.Fatalf("step %d (%s): stats drifted:\n got %+v\nwant %+v", step, op, got, want)
	}
	wantEv := s.evicted()
	gotEv := m.Evicted()
	if len(gotEv) != len(wantEv) {
		t.Fatalf("step %d (%s): evicted %v, want %v", step, op, gotEv, wantEv)
	}
	for i := range wantEv {
		if gotEv[i] != wantEv[i] {
			t.Fatalf("step %d (%s): evicted order %v, want %v", step, op, gotEv, wantEv)
		}
	}
	if len(wantEv) > 0 {
		if id, ok := m.OldestEvicted(); !ok || id != wantEv[0] {
			t.Fatalf("step %d (%s): oldest evicted %d/%v, want %d", step, op, id, ok, wantEv[0])
		}
	} else if _, ok := m.OldestEvicted(); ok {
		t.Fatalf("step %d (%s): phantom oldest evicted", step, op)
	}
	if got, want := m.ResidentCount(), want.ResidentSeqs; got != want {
		t.Fatalf("step %d (%s): resident count %d, want %d", step, op, got, want)
	}
	if got, want := m.EvictedCount(), want.EvictedSeqs; got != want {
		t.Fatalf("step %d (%s): evicted count %d, want %d", step, op, got, want)
	}
	for id, ref := range s.refs {
		q, live := s.seqs[id]
		want := live && !q.onHost
		if ref.Resident() != want || m.Resident(id) != want {
			t.Fatalf("step %d (%s): seq %d handle resident %v, ID resident %v, want %v",
				step, op, id, ref.Resident(), m.Resident(id), want)
		}
		if live && m.Ref(id) != ref {
			t.Fatalf("step %d (%s): seq %d handle changed since admission", step, op, id)
		}
		if !live && m.Ref(id) != (SeqRef{}) {
			t.Fatalf("step %d (%s): released seq %d still has a handle", step, op, id)
		}
	}
}

func TestManagerRandomOpsProperty(t *testing.T) {
	for _, policy := range []Policy{Paged, MaxLen} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := Config{
					Policy:        policy,
					PageTokens:    1 + rng.Intn(32),
					BytesPerToken: 1 + int64(rng.Intn(4096)),
					MaxSeqLen:     32 + rng.Intn(512),
				}
				pages := 8 + rng.Intn(256)
				cfg.CapacityBytes = int64(pages) * int64(cfg.PageTokens) * cfg.BytesPerToken
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sh := &shadow{cfg: cfg, total: m.TotalPages(), seqs: map[int]*shadowSeq{}, refs: map[int]SeqRef{}}
				nextID := 0

				for step := 0; step < 2000; step++ {
					op := runRandomOp(t, rng, m, sh, &nextID)
					checkAgainstShadow(t, m, sh, step, op)
				}
			}
		})
	}
}

// runRandomOp applies one randomly chosen valid operation to both the
// manager and the shadow, returning a description for failure messages.
func runRandomOp(t *testing.T, rng *rand.Rand, m *Manager, sh *shadow, nextID *int) string {
	t.Helper()
	switch rng.Intn(5) {
	case 0: // Admit
		id := *nextID
		tokens := 1 + rng.Intn(sh.cfg.MaxSeqLen)
		if !m.CanAdmit(tokens) {
			return "admit-skipped"
		}
		if err := m.Admit(id, tokens); err != nil {
			t.Fatalf("admit %d (%d tokens): %v", id, tokens, err)
		}
		*nextID++
		sh.refs[id] = m.Ref(id)
		sh.seqs[id] = &shadowSeq{id: id, tokens: tokens, order: id}
		sh.order = append(sh.order, id)
		return fmt.Sprintf("admit %d", id)
	case 1: // Extend, by ID or through the admission handle
		byRef := rng.Intn(2) == 0
		extend := func(id, n int) (int, error) {
			if byRef {
				return m.ExtendRef(sh.refs[id], n)
			}
			return m.Extend(id, n)
		}
		if rng.Intn(4) == 0 {
			// An evicted or released sequence refuses to grow either way.
			for id := range sh.refs {
				if q, live := sh.seqs[id]; !live || q.onHost {
					if _, err := extend(id, 1); err == nil {
						t.Fatalf("extend of evicted or released seq %d (by handle %v) succeeded", id, byRef)
					}
					return "extend-refused"
				}
			}
		}
		res := sh.residentIDs()
		if len(res) == 0 {
			return "extend-skipped"
		}
		id := res[rng.Intn(len(res))]
		n := 1 + rng.Intn(16)
		q := sh.seqs[id]
		if q.tokens+n > sh.cfg.MaxSeqLen {
			return "extend-skipped"
		}
		need := sh.pagesFor(q.tokens+n) - sh.pagesFor(q.tokens)
		if need > m.FreePages() {
			return "extend-skipped"
		}
		got, err := extend(id, n)
		if err != nil {
			t.Fatalf("extend %d by %d (by handle %v): %v", id, n, byRef, err)
		}
		if got != need {
			t.Fatalf("extend %d by %d (by handle %v) allocated %d pages, want %d", id, n, byRef, got, need)
		}
		q.tokens += n
		return fmt.Sprintf("extend %d (by handle %v)", id, byRef)
	case 2: // EvictLast
		id, _, ok := m.EvictLast()
		if !ok {
			if len(sh.residentIDs()) != 0 {
				t.Fatal("EvictLast refused with residents present")
			}
			return "evict-skipped"
		}
		// The victim must be the newest-admitted resident.
		newest, newestOrder := -1, -1
		for _, q := range sh.seqs {
			if !q.onHost && q.order > newestOrder {
				newest, newestOrder = q.id, q.order
			}
		}
		if id != newest {
			t.Fatalf("EvictLast evicted %d, want newest resident %d", id, newest)
		}
		sh.seqs[id].onHost = true
		sh.evictions++
		return fmt.Sprintf("evict %d", id)
	case 3: // Reload oldest
		ev := sh.evicted()
		if len(ev) == 0 {
			return "reload-skipped"
		}
		id := ev[0]
		if !m.CanReload(id) {
			return "reload-skipped"
		}
		if _, err := m.Reload(id); err != nil {
			t.Fatalf("reload %d: %v", id, err)
		}
		sh.seqs[id].onHost = false
		sh.reloads++
		return fmt.Sprintf("reload %d", id)
	default: // Release
		ids := sh.allIDs()
		if len(ids) == 0 {
			return "release-skipped"
		}
		id := ids[rng.Intn(len(ids))]
		if err := m.Release(id); err != nil {
			t.Fatalf("release %d: %v", id, err)
		}
		delete(sh.seqs, id)
		for i, oid := range sh.order {
			if oid == id {
				sh.order = append(sh.order[:i], sh.order[i+1:]...)
				break
			}
		}
		return fmt.Sprintf("release %d", id)
	}
}
