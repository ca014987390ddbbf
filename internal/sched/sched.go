// Package sched implements iteration-level request scheduling for LLM
// serving simulation — the Orca-style continuous batching at the heart of
// LLMServingSim's workflow (Fig. 4, step 1), intertwined with vLLM-style
// paged KV-cache admission, eviction and reload, plus the sub-batch
// partitioning used for NPU+PIM interleaving (Algorithm 1, line 2).
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Policy selects the batching discipline (the artifact's scheduling
// parameter).
type Policy int

const (
	// Orca reschedules the batch every iteration: finished requests leave
	// immediately and new arrivals join immediately.
	Orca Policy = iota
	// Static runs an admitted batch to completion before admitting more,
	// the pre-Orca baseline.
	Static
	// Chunked is Orca-style continuous batching with long prefills split
	// into ChunkTokens-sized slices spread across iterations, so decode
	// batches are not starved behind monolithic prompt processing.
	Chunked
)

// ParsePolicy converts the artifact's CLI values.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "orca", "iteration":
		return Orca, nil
	case "static", "batch":
		return Static, nil
	case "chunked", "chunk":
		return Chunked, nil
	default:
		return 0, fmt.Errorf("sched: unknown policy %q (want orca|static|chunked)", s)
	}
}

func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Chunked:
		return "chunked"
	default:
		return "orca"
	}
}

// DefaultChunkTokens is the prefill slice size when the Chunked policy
// is selected without an explicit ChunkTokens.
const DefaultChunkTokens = 256

// Config parameterises the scheduler.
type Config struct {
	Policy     Policy
	MaxBatch   int              // maximum requests per iteration; 0 = unlimited
	BatchDelay simtime.Duration // extra wait to accumulate arrivals when idle
	SubBatches int              // >1 partitions batches for engine interleaving
	// SkipPrefill admits requests directly in the generation phase with
	// their prompt KV assumed resident (the artifact's "gen" flag, used to
	// isolate generation-phase behaviour).
	SkipPrefill bool
	// ChunkTokens bounds the prompt tokens one request contributes to a
	// single iteration under the Chunked policy (0 = DefaultChunkTokens).
	ChunkTokens int
	// Prefix admits requests through the KV manager's shared-prefix cache
	// keyed by traffic class: cache-hit requests skip the cached portion
	// of prefill, and the admit's spill/reload traffic is priced as page
	// operations. Requires a manager configured with a PrefixMode.
	Prefix bool

	// Obs, when non-nil, records span telemetry for this scheduler's
	// requests (admission, prefill slices, first token, completion,
	// rejection); ObsReplica labels the events with the owning replica
	// slot. Purely observational: recording never changes scheduling.
	Obs        *obs.Recorder
	ObsReplica int
}

// PageOp is a KV paging action decided during batch formation, to be
// turned into a memory transfer node by the graph converter.
type PageOp struct {
	ReqID int
	Bytes int64
	Load  bool // reload from host vs evict to host
}

// Batch is one iteration's scheduled work.
//
// Next returns a pointer to one scheduler-owned Batch whose fields it
// rewrites on every call, and Seqs, PageOps and SubBatch alias buffers
// recycled the same way: a Batch is valid until the next call to Next,
// and Complete must be given the batch the last Next returned. Drivers
// that need to retain one longer must copy it.
type Batch struct {
	Time    simtime.Time // iteration start (scheduler clock)
	Seqs    []model.Seq
	PageOps []PageOp
	// SubBatch[i] is the sub-batch index of Seqs[i]. It is nil when
	// partitioning is off: the whole batch is sub-batch 0.
	SubBatch []int
	// PromptTokens counts prompt tokens processed this iteration;
	// DecodeSeqs counts generation-phase sequences.
	PromptTokens int
	DecodeSeqs   int

	// states[i] is the request Seqs[i] belongs to, so Complete needs no
	// ID lookup.
	states []*reqState
}

// Finished records one completed request.
type Finished struct {
	Req        workload.Request
	FirstToken simtime.Time // when the first output token was produced
	Completed  simtime.Time
	// CachedTokens counts the prompt tokens served from the shared-prefix
	// cache instead of prefill (0 without prefix caching).
	CachedTokens int
}

// Rejected records one request the scheduler refused to serve: its
// prompt can never be admitted on this instance (longer than the model
// context limit or the whole KV budget), or its total length breaks the
// context limit mid-decode. Without this path an unservable request
// would stall admission forever — the head-of-line requests behind it
// could never be admitted and Next would report the trace done with
// work still pending — or abort the whole run once its growth hit the
// context cap.
type Rejected struct {
	Req  workload.Request
	Time simtime.Time // scheduler clock when the request was refused
	Err  error
}

// reqState tracks a request through its serving lifetime. States form an
// intrusive doubly-linked list in admission order, so removal is O(1)
// while iteration keeps the admission order the eviction policy and
// batch formation rely on.
type reqState struct {
	req       workload.Request
	kv        kvcache.SeqRef // the request's KV sequence, taken at admission
	generated int
	prefilled bool
	first     simtime.Time

	// Prefill progress: cached counts prompt tokens the shared-prefix
	// cache covered at admission, prefillDone the tokens processed by
	// completed prefill slices. The request is prefilled when the two
	// cover the whole prompt.
	cached      int
	prefillDone int

	prev, next *reqState
}

// Scheduler forms iteration batches from a request trace against a KV
// cache budget.
type Scheduler struct {
	cfg Config
	kv  *kvcache.Manager

	pending       []workload.Request // arrival-sorted, not yet admitted
	cursor        int
	pendingTokens int64 // total tokens of pending[cursor:]

	// Active set: admission-order intrusive list and its length.
	head, tail *reqState
	active     int

	clock simtime.Time

	finished   []Finished
	rejected   []Rejected
	iterations int

	// Cached telemetry levels, so the hot loops pay one local bool test
	// instead of a recorder nil-check per potential event.
	obsSpans, obsFull bool

	// Iteration-scoped buffers recycled across Next calls (see Batch).
	batchBuf Batch
	seqBuf   []model.Seq
	stateBuf []*reqState
	opsBuf   []PageOp
	subBuf   []int // SubBatch, then partition's sort order
	loadBuf  []int
}

// New creates a scheduler over the given trace. The trace is sorted by
// arrival time internally.
func New(cfg Config, kv *kvcache.Manager, reqs []workload.Request) (*Scheduler, error) {
	if kv == nil {
		return nil, fmt.Errorf("sched: nil kv manager")
	}
	if cfg.SubBatches < 0 {
		return nil, fmt.Errorf("sched: negative sub-batch count %d", cfg.SubBatches)
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("sched: negative max batch %d", cfg.MaxBatch)
	}
	if cfg.ChunkTokens < 0 {
		return nil, fmt.Errorf("sched: negative chunk tokens %d", cfg.ChunkTokens)
	}
	if cfg.Policy == Chunked && cfg.ChunkTokens == 0 {
		cfg.ChunkTokens = DefaultChunkTokens
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	sorted := append([]workload.Request(nil), reqs...)
	workload.SortByArrival(sorted)
	s := &Scheduler{
		cfg:      cfg,
		kv:       kv,
		pending:  sorted,
		obsSpans: cfg.Obs.Spans(),
		obsFull:  cfg.Obs.Full(),
	}
	for _, r := range sorted {
		s.pendingTokens += int64(r.TotalLen())
	}
	return s, nil
}

// Clock returns the scheduler's current simulated time.
func (s *Scheduler) Clock() simtime.Time { return s.clock }

// Push adds one request to the pending queue mid-run, preserving its ID —
// the incremental admission path used by cluster routing, where requests
// are assigned to a scheduler only when they arrive. The caller is
// responsible for ID uniqueness within this scheduler. Unlike New, Push
// never renumbers.
func (s *Scheduler) Push(r workload.Request) error {
	if err := r.Validate(); err != nil {
		return err
	}
	// Insert in arrival order within the not-yet-admitted tail.
	i := s.cursor + sort.Search(len(s.pending)-s.cursor, func(k int) bool {
		return s.pending[s.cursor+k].Arrival.After(r.Arrival)
	})
	s.pending = append(s.pending, workload.Request{})
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = r
	s.pendingTokens += int64(r.TotalLen())
	return nil
}

// NextEventTime returns the simulated time at which this scheduler next
// has work to do: its clock while requests are in flight (or evicted
// sequences await reload), otherwise the earliest pending arrival plus
// the batching delay. ok is false when the scheduler has fully drained —
// though a later Push can revive it.
func (s *Scheduler) NextEventTime() (t simtime.Time, ok bool) {
	if s.Done() {
		return 0, false
	}
	if s.head != nil || s.kv.EvictedCount() > 0 {
		return s.clock, true
	}
	return simtime.Later(s.clock, s.pending[s.cursor].Arrival.Add(s.cfg.BatchDelay)), true
}

// QueuedTokens returns the total tokens still to be processed by this
// scheduler: prompt plus output tokens of pending requests, and the
// remaining work of active ones. It is the load signal least-loaded
// cluster routing balances on — called once per replica per arrival,
// so the pending side (which grows without bound under saturation) is
// tracked incrementally and only the KV-bounded active set is scanned.
func (s *Scheduler) QueuedTokens() int64 {
	n := s.pendingTokens
	for st := s.head; st != nil; st = st.next {
		if st.prefilled {
			n += int64(st.req.OutputLen - st.generated)
		} else {
			n += int64(st.req.TotalLen())
		}
	}
	return n
}

// QueuedRequests returns how many requests are waiting or in flight.
func (s *Scheduler) QueuedRequests() int {
	return len(s.pending) - s.cursor + s.active
}

// Outstanding returns the requests this scheduler has accepted but not
// yet finished or rejected: the active set in admission order, then the
// pending arrivals in arrival order. Cluster failure injection uses it
// to requeue a failed replica's remaining work onto surviving replicas.
func (s *Scheduler) Outstanding() []workload.Request {
	out := make([]workload.Request, 0, s.active+len(s.pending)-s.cursor)
	for st := s.head; st != nil; st = st.next {
		out = append(out, st.req)
	}
	return append(out, s.pending[s.cursor:]...)
}

// TakePending removes and returns the not-yet-admitted requests, in
// arrival order. Graceful drain migrates this backlog to surviving
// replicas so a draining replica only finishes the work it has actually
// admitted.
func (s *Scheduler) TakePending() []workload.Request {
	out := append([]workload.Request(nil), s.pending[s.cursor:]...)
	s.pending = s.pending[:s.cursor]
	for _, r := range out {
		s.pendingTokens -= int64(r.TotalLen())
	}
	return out
}

// Iterations returns how many batches have completed.
func (s *Scheduler) Iterations() int { return s.iterations }

// Finished returns the completed requests so far, in completion order.
func (s *Scheduler) Finished() []Finished { return s.finished }

// ResetFinished discards the retained completion records, recycling
// the backing array for subsequent completions. The streaming engine
// calls it each step once the completion hook has delivered every
// record, so per-replica memory stays flat in the request count;
// Iterations, Done, and queue accounting are unaffected.
func (s *Scheduler) ResetFinished() { s.finished = s.finished[:0] }

// Rejected returns the requests refused as unservable, in refusal order.
func (s *Scheduler) Rejected() []Rejected { return s.rejected }

// ResetRejected discards the retained rejection records — the
// counterpart to ResetFinished for the rejection hook.
func (s *Scheduler) ResetRejected() { s.rejected = s.rejected[:0] }

// Done reports whether all requests have completed (or been rejected).
func (s *Scheduler) Done() bool {
	return s.cursor == len(s.pending) && s.active == 0
}

// pushActive appends st at the tail of the admission-order list.
func (s *Scheduler) pushActive(st *reqState) {
	st.prev = s.tail
	if s.tail != nil {
		s.tail.next = st
	} else {
		s.head = st
	}
	s.tail = st
	s.active++
}

// dropActive unlinks st from the admission-order list.
func (s *Scheduler) dropActive(st *reqState) {
	if st.prev != nil {
		st.prev.next = st.next
	} else {
		s.head = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else {
		s.tail = st.prev
	}
	st.prev, st.next = nil, nil
	s.active--
}

// Next forms the next iteration batch (Algorithm 1, line 1 "Batch
// formatting"). It advances the clock to the next arrival when the system
// is idle. ok is false when all requests have completed. The returned
// Batch aliases scheduler-owned buffers and is valid until the next call
// to Next.
func (s *Scheduler) Next() (b *Batch, ok bool) {
	if s.Done() {
		return nil, false
	}
	// Idle system: jump to the next arrival (plus the configured batching
	// delay to accumulate a fuller first batch).
	if s.head == nil && s.kv.EvictedCount() == 0 {
		arr := s.pending[s.cursor].Arrival
		t := arr.Add(s.cfg.BatchDelay)
		if s.clock.Before(t) {
			s.clock = t
		}
	}

	ops := s.opsBuf[:0]

	// Reload previously evicted sequences when memory permits (oldest
	// first, as the paper reloads "for processing in subsequent batches").
	for {
		id, ok := s.kv.OldestEvicted()
		if !ok || !s.kv.CanReload(id) {
			break
		}
		bytes, err := s.kv.Reload(id)
		if err != nil {
			break
		}
		ops = append(ops, PageOp{ReqID: id, Bytes: bytes, Load: true})
	}

	// Admit new arrivals continuously (Static admits only when drained).
	if s.cfg.Policy != Static || s.head == nil {
		s.admit(&ops)
	}

	// Grow every resident running sequence by one token slot; on memory
	// exhaustion, evict the most recently admitted sequences until the
	// growth fits (the paper's eviction policy). A victim is moved to the
	// host, so it fails the Resident test when the loop reaches it.
	// States are sized for every resident sequence up front, which keeps
	// their growth to one allocation per doubling of the resident set.
	if n := s.kv.ResidentCount(); cap(s.stateBuf) < n {
		s.stateBuf = make([]*reqState, 0, max(2*cap(s.stateBuf), n, 2))
	}
	batchSeqs, states := s.seqBuf[:0], s.stateBuf[:0]
	var promptTokens, decodeSeqs int
	for st := s.head; st != nil; st = st.next {
		if s.cfg.MaxBatch > 0 && len(batchSeqs) >= s.cfg.MaxBatch {
			break
		}
		if !st.kv.Resident() {
			continue
		}
		if st.prefilled {
			// Reserve the KV slot for the token produced this iteration.
			if !s.growOrEvict(st, &ops) {
				continue
			}
			ctx := st.req.InputLen + st.generated - 1
			batchSeqs = append(batchSeqs, model.Seq{
				ReqID: st.req.ID, NewTokens: 1, Context: ctx, Phase: model.Generation,
			})
			decodeSeqs++
		} else {
			q := s.prefillSeq(st)
			batchSeqs = append(batchSeqs, q)
			promptTokens += q.NewTokens
		}
		states = append(states, st)
	}

	if len(batchSeqs) == 0 {
		s.seqBuf, s.stateBuf, s.opsBuf = batchSeqs, states, ops
		// Everything resident was evicted or nothing is runnable yet;
		// advance to the next arrival and retry with fresh admissions.
		if s.cursor < len(s.pending) {
			s.clock = simtime.Later(s.clock, s.pending[s.cursor].Arrival)
			s.admit(&ops)
			if b, ok := s.retryAfterAdmit(ops); ok {
				return b, true
			}
			// The retry can come up empty too — e.g. the advanced-to
			// arrivals were all rejected as unservable — so fall through
			// to thrash recovery rather than stranding evicted work.
		}
		// Remaining sequences are evicted with no free memory: reload the
		// oldest so the simulated system, however thrashed, still makes
		// forward progress.
		if id, ok := s.forceReload(&ops); ok {
			s.opsBuf = ops
			for st := s.head; st != nil; st = st.next {
				if st.req.ID == id {
					return s.buildSingle(st, ops), true
				}
			}
		}
		return nil, false
	}

	s.opsBuf = ops
	return s.fill(batchSeqs, states, ops, promptTokens, decodeSeqs), true
}

// fill writes the iteration's batch into the scheduler-owned batchBuf
// in place and keeps seqs and states as the recycled buffers.
func (s *Scheduler) fill(seqs []model.Seq, states []*reqState, ops []PageOp, promptTokens, decodeSeqs int) *Batch {
	s.seqBuf, s.stateBuf = seqs, states
	b := &s.batchBuf
	b.Time = s.clock
	b.Seqs = seqs
	b.PageOps = ops
	b.SubBatch = s.partition(seqs)
	b.PromptTokens = promptTokens
	b.DecodeSeqs = decodeSeqs
	b.states = states
	return b
}

// retryAfterAdmit rebuilds a batch right after late admissions; used when
// the first pass found nothing runnable.
func (s *Scheduler) retryAfterAdmit(ops []PageOp) (*Batch, bool) {
	batchSeqs, states := s.seqBuf[:0], s.stateBuf[:0]
	promptTokens := 0
	for st := s.head; st != nil; st = st.next {
		if st.prefilled || !st.kv.Resident() {
			continue
		}
		q := s.prefillSeq(st)
		batchSeqs = append(batchSeqs, q)
		states = append(states, st)
		promptTokens += q.NewTokens
		if s.cfg.MaxBatch > 0 && len(batchSeqs) >= s.cfg.MaxBatch {
			break
		}
	}
	if len(batchSeqs) == 0 {
		s.seqBuf, s.stateBuf = batchSeqs, states
		return nil, false
	}
	return s.fill(batchSeqs, states, ops, promptTokens, 0), true
}

// buildSingle runs one sequence alone (thrash-recovery path).
func (s *Scheduler) buildSingle(st *reqState, ops []PageOp) *Batch {
	seq := model.Seq{ReqID: st.req.ID, NewTokens: 1, Context: st.req.InputLen + st.generated - 1, Phase: model.Generation}
	promptTokens := 0
	if !st.prefilled {
		seq = s.prefillSeq(st)
		promptTokens = seq.NewTokens
	}
	return s.fill(append(s.seqBuf[:0], seq), append(s.stateBuf[:0], st), ops, promptTokens, boolToInt(st.prefilled))
}

// prefillSeq emits st's next prefill slice: the whole remaining prompt,
// or one chunk of it under the Chunked policy. Cache-covered prefix
// tokens and previously processed slices are context, not new work.
func (s *Scheduler) prefillSeq(st *reqState) model.Seq {
	done := st.cached + st.prefillDone
	n := st.req.InputLen - done
	if s.cfg.Policy == Chunked && n > s.cfg.ChunkTokens {
		n = s.cfg.ChunkTokens
	}
	return model.Seq{ReqID: st.req.ID, NewTokens: n, Context: done, Phase: model.Initiation}
}

// admit pulls arrived requests into the active set while KV memory fits.
// Requests whose KV demand could never fit — even on an empty device —
// are rejected (recorded, never served) instead of stalling the head of
// the queue forever. With prefix caching on, admission goes through the
// shared-prefix cache and the admit's spill/reload traffic lands in ops.
func (s *Scheduler) admit(ops *[]PageOp) {
	for s.cursor < len(s.pending) {
		r := s.pending[s.cursor]
		if r.Arrival.After(s.clock) {
			break
		}
		// A request whose prompt can never be admitted — longer than the
		// model context or than the whole KV budget — would block this
		// loop forever, and one whose total length breaks the context
		// limit would abort the run mid-decode once its KV growth hits
		// the cap. Both are unservable here and are rejected up front.
		// (Growth beyond the *page budget* is different: it is served,
		// slowly, by the eviction/reload thrash-recovery path.)
		if maxKV := r.TotalLen() - 1; !s.kv.CanEverAdmit(r.InputLen) || maxKV > s.kv.Config().MaxSeqLen {
			s.rejected = append(s.rejected, Rejected{
				Req:  r,
				Time: s.clock,
				Err: fmt.Errorf("sched: request %d (prompt %d, total %d tokens) can never be admitted (max seq %d, %d pages of %d tokens)",
					r.ID, r.InputLen, r.TotalLen(), s.kv.Config().MaxSeqLen, s.kv.TotalPages(), s.kv.Config().PageTokens),
			})
			s.cursor++
			s.pendingTokens -= int64(r.TotalLen())
			if s.obsSpans {
				s.cfg.Obs.Reject(s.cfg.ObsReplica, r.ID, r.Class, s.clock, obs.RejectUnservable)
			}
			continue
		}
		if s.cfg.MaxBatch > 0 && s.kv.ResidentCount() >= s.cfg.MaxBatch {
			break
		}
		st := &reqState{req: r}
		if s.cfg.Prefix {
			if !s.kv.CanAdmitWithPrefix(r.InputLen, r.CacheKey(), r.PrefixLen) {
				break
			}
			res, err := s.kv.AdmitWithPrefix(r.ID, r.InputLen, r.CacheKey(), r.PrefixLen)
			if err != nil {
				break
			}
			if res.SpillBytes > 0 {
				*ops = append(*ops, PageOp{ReqID: r.ID, Bytes: res.SpillBytes, Load: false})
			}
			if res.ReloadBytes > 0 {
				*ops = append(*ops, PageOp{ReqID: r.ID, Bytes: res.ReloadBytes, Load: true})
			}
			// Even a fully cached prompt computes its last token, so the
			// first output token still comes out of an Initiation slice.
			st.cached = res.CachedTokens
			if st.cached >= r.InputLen {
				st.cached = r.InputLen - 1
			}
		} else {
			if !s.kv.CanAdmit(r.InputLen) {
				break
			}
			if err := s.kv.Admit(r.ID, r.InputLen); err != nil {
				break
			}
		}
		if s.cfg.SkipPrefill {
			// Generation-only mode: the prompt KV is assumed resident and
			// the first token is accounted at admission.
			st.prefilled = true
			st.generated = 1
			st.first = s.clock
		}
		st.kv = s.kv.Ref(r.ID)
		s.pushActive(st)
		s.cursor++
		s.pendingTokens -= int64(r.TotalLen())
		if s.obsSpans {
			s.cfg.Obs.Admit(s.cfg.ObsReplica, r.ID, r.Class, r.Arrival, s.clock, st.cached)
			if s.cfg.SkipPrefill {
				s.cfg.Obs.FirstToken(s.cfg.ObsReplica, r.ID, s.clock)
			}
		}
	}
	// Shed the admitted prefix once it dominates the slice. The region
	// below cursor is never read again, so this is invisible to every
	// accessor, but without it a streamed run's pending array grows with
	// every request ever pushed rather than with the standing backlog.
	// The half-full threshold amortizes the copy to O(1) per admission.
	if s.cursor >= 1024 && s.cursor*2 >= len(s.pending) {
		n := copy(s.pending, s.pending[s.cursor:])
		s.pending = s.pending[:n]
		s.cursor = 0
	}
}

// growOrEvict extends st's sequence by one token, evicting
// newest-admitted other sequences on demand. Returns false if st itself
// was evicted.
func (s *Scheduler) growOrEvict(st *reqState, ops *[]PageOp) bool {
	id := st.req.ID
	for {
		if _, err := s.kv.ExtendRef(st.kv, 1); err == nil {
			return true
		}
		// Reclaim idle prefix-cache blocks before evicting live sequences:
		// spilling a cache block never costs requeued decode work.
		if bytes, freed := s.kv.SpillIdlePrefix(1); freed > 0 {
			if bytes > 0 {
				*ops = append(*ops, PageOp{ReqID: id, Bytes: bytes, Load: false})
			}
			continue
		}
		vid, bytes, ok := s.kv.EvictLast()
		if !ok {
			return false
		}
		*ops = append(*ops, PageOp{ReqID: vid, Bytes: bytes, Load: false})
		if vid == id {
			return false
		}
	}
}

// forceReload brings the oldest evicted sequence back to device memory if
// it fits, so the thrash-recovery path in Next can run it alone. It
// returns the reloaded sequence ID, or ok=false when nothing is evicted
// or the reload does not fit.
func (s *Scheduler) forceReload(ops *[]PageOp) (int, bool) {
	id, ok := s.kv.OldestEvicted()
	if !ok || !s.kv.CanReload(id) {
		return 0, false
	}
	bytes, err := s.kv.Reload(id)
	if err != nil {
		return 0, false
	}
	*ops = append(*ops, PageOp{ReqID: id, Bytes: bytes, Load: true})
	return id, true
}

// Complete applies one simulated iteration's outcome: the clock advances
// by the iteration latency, every scheduled sequence emits one token, and
// finished requests release their KV pages (Fig. 4's feedback edge from
// ASTRA-sim back to the scheduler).
// b must be the batch the last Next returned, unaltered and not yet
// completed.
func (s *Scheduler) Complete(b *Batch, latency simtime.Duration) error {
	if b == nil {
		return fmt.Errorf("sched: nil batch")
	}
	if latency < 0 {
		return fmt.Errorf("sched: negative iteration latency %v", latency)
	}
	if b != &s.batchBuf || len(b.states) != len(b.Seqs) {
		return fmt.Errorf("sched: batch of %d sequences is not the uncompleted batch from this scheduler's last Next", len(b.Seqs))
	}
	// Consume the batch, so completing it twice is refused too.
	states := b.states
	b.states = nil
	s.clock = b.Time.Add(latency)
	s.iterations++

	for i, seq := range b.Seqs {
		st := states[i]
		if !st.prefilled {
			st.prefillDone += seq.NewTokens
			if s.obsFull {
				s.cfg.Obs.PrefillChunk(s.cfg.ObsReplica, seq.ReqID, b.Time, s.clock, seq.NewTokens)
			}
			if st.cached+st.prefillDone < st.req.InputLen {
				continue // mid-prefill under the Chunked policy
			}
			st.prefilled = true
			st.generated = 1
			st.first = s.clock
			if s.obsSpans {
				s.cfg.Obs.FirstToken(s.cfg.ObsReplica, seq.ReqID, s.clock)
			}
		} else {
			st.generated++
		}
		if st.generated >= st.req.OutputLen {
			if err := s.kv.Release(st.req.ID); err != nil {
				return err
			}
			s.finished = append(s.finished, Finished{
				Req: st.req, FirstToken: st.first, Completed: s.clock,
				CachedTokens: st.cached,
			})
			s.dropActive(st)
			if s.obsSpans {
				s.cfg.Obs.Finish(s.cfg.ObsReplica, seq.ReqID, s.clock)
			}
		}
	}
	return nil
}

// partition splits the batch into SubBatches groups balanced by new-token
// load (longest-processing-time assignment), the paper's "fairness of
// computation load" criteria. The result is indexed like seqs, nil
// when partitioning is off, and aliases a scheduler-owned buffer
// recycled on the next Next call.
func (s *Scheduler) partition(seqs []model.Seq) []int {
	n := s.cfg.SubBatches
	if n <= 1 {
		return nil
	}
	// One buffer holds the result and, behind it, the positions sorted
	// by descending work (new tokens, then context), stable so ties keep
	// batch order. Each position goes to the lightest bucket.
	m := len(seqs)
	s.subBuf = slices.Grow(s.subBuf[:0], 2*m)[:2*m]
	out, order := s.subBuf[:m:m], s.subBuf[m:]
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(work(seqs[b]), work(seqs[a]))
	})
	if cap(s.loadBuf) < n {
		s.loadBuf = make([]int, n)
	}
	load := s.loadBuf[:n]
	for i := range load {
		load[i] = 0
	}
	for _, i := range order {
		best := 0
		for k := 1; k < n; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		load[best] += work(seqs[i])
		out[i] = best
	}
	return out
}

// work is a sequence's partitioning weight: new tokens, then context.
func work(q model.Seq) int { return q.NewTokens*1024 + q.Context }

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
