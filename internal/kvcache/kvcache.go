// Package kvcache manages key-value cache memory for serving simulation.
//
// The default manager implements vLLM-style demand paging: KV memory is
// carved into fixed-size pages allocated on demand as sequences grow, and
// when device memory is exhausted whole sequences are evicted to host
// memory and reloaded later (Section IV-A "KV cache-aware memory
// modeling"). A max-length preallocation manager reproduces the
// conventional scheme vLLM improves on, for the paging ablation.
//
// The manager is built for simulation hot loops: eviction order is kept
// in an intrusive max-heap over resident sequences and a min-heap over
// evicted ones, and occupancy statistics are maintained incrementally,
// so EvictLast, OldestEvicted, ResidentCount, EvictedCount, and Stats
// are O(log n) or O(1) rather than scans of the sequence map. A caller
// that touches a sequence every step resolves its ID once with Ref and
// then tests residency and extends it through the SeqRef handle, which
// probes no map: a steady decode step costs no hash lookup. Shared
// prefix blocks get the same treatment: idle and host-tier blocks sit
// in LRU min-heaps, so CanAdmitWithPrefix is O(prefix blocks), and
// AdmitWithPrefix, Release and SpillIdlePrefix pay O(log n) per block
// they acquire, release, spill or drop, never a scan of the cache.
package kvcache

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// Policy selects the memory-management scheme (the artifact's kv_manage
// parameter).
type Policy int

const (
	// Paged is vLLM-style demand paging.
	Paged Policy = iota
	// MaxLen preallocates pages for the maximum possible sequence length.
	MaxLen
)

// ParsePolicy converts the artifact's CLI values ("vllm", "maxlen").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "vllm", "paged":
		return Paged, nil
	case "maxlen", "max":
		return MaxLen, nil
	default:
		return 0, fmt.Errorf("kvcache: unknown policy %q (want vllm|maxlen)", s)
	}
}

func (p Policy) String() string {
	if p == MaxLen {
		return "maxlen"
	}
	return "vllm"
}

// Config sizes a Manager.
type Config struct {
	Policy        Policy
	PageTokens    int   // tokens per page (vLLM block size; 16 by default)
	BytesPerToken int64 // KV bytes one token occupies (model-dependent)
	CapacityBytes int64 // device memory available for KV cache
	MaxSeqLen     int   // model context limit (MaxLen policy page count)

	// Prefix selects shared-prefix block caching (see PrefixMode).
	// Requires the Paged policy.
	Prefix PrefixMode
	// HostBytes bounds the CPU offload tier spilled prefix blocks occupy
	// under PrefixTiered (0 = unbounded); rounded down to whole pages.
	HostBytes int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PageTokens <= 0:
		return fmt.Errorf("kvcache: page tokens must be positive, got %d", c.PageTokens)
	case c.BytesPerToken <= 0:
		return fmt.Errorf("kvcache: bytes per token must be positive, got %d", c.BytesPerToken)
	case c.CapacityBytes <= 0:
		return fmt.Errorf("kvcache: capacity must be positive, got %d", c.CapacityBytes)
	case c.MaxSeqLen <= 0:
		return fmt.Errorf("kvcache: max sequence length must be positive, got %d", c.MaxSeqLen)
	case c.Prefix != PrefixOff && c.Policy != Paged:
		return fmt.Errorf("kvcache: prefix caching requires the paged policy")
	case c.HostBytes < 0:
		return fmt.Errorf("kvcache: host tier bytes must be non-negative, got %d", c.HostBytes)
	}
	return nil
}

// seq tracks one resident or evicted sequence. tokens and pages cover
// only the sequence's private portion; the shared prefix it acquired at
// admission lives in the reference-counted blocks listed in prefix.
type seq struct {
	id     int
	tokens int
	pages  int
	onHost bool
	order  int // admission order, used as the eviction tiebreak
	hidx   int // index in the resident/evicted heap it currently lives in

	prefix       []*prefixBlock // shared blocks acquired at admission
	prefixTokens int            // tokens those blocks cover
}

// released reports whether Release has dropped the sequence: it then
// sits in neither heap, which every live sequence does.
func (s *seq) released() bool { return s.hidx < 0 }

// SeqRef is a handle on one admitted sequence, taken with Manager.Ref.
// It stays valid across EvictLast and Reload, which move the same
// sequence record between heaps; after Release it refers to a sequence
// that is gone. The zero SeqRef refers to no sequence. A handle must be
// used only with the manager it came from.
type SeqRef struct{ s *seq }

// Ref returns the handle of sequence id, or the zero SeqRef if the
// manager holds no such sequence.
func (m *Manager) Ref(id int) SeqRef { return SeqRef{m.seqs[id]} }

// Resident reports whether the referenced sequence holds device pages.
func (r SeqRef) Resident() bool { return r.s != nil && !r.s.released() && !r.s.onHost }

// orderHeap is an intrusive binary heap of sequences keyed by admission
// order. max selects newest-first (the resident eviction heap) vs
// oldest-first (the evicted reload heap). Every member's hidx tracks its
// slot so arbitrary removal (Release, Reload) stays O(log n).
type orderHeap struct {
	s   []*seq
	max bool
}

func (h *orderHeap) before(a, b *seq) bool {
	if h.max {
		return a.order > b.order
	}
	return a.order < b.order
}

func (h *orderHeap) len() int { return len(h.s) }

func (h *orderHeap) peek() *seq {
	if len(h.s) == 0 {
		return nil
	}
	return h.s[0]
}

func (h *orderHeap) push(x *seq) {
	x.hidx = len(h.s)
	h.s = append(h.s, x)
	h.up(x.hidx)
}

// remove deletes the element at heap index i.
func (h *orderHeap) remove(i int) {
	n := len(h.s) - 1
	h.s[i].hidx = -1
	if i != n {
		h.s[i] = h.s[n]
		h.s[i].hidx = i
	}
	h.s = h.s[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
}

func (h *orderHeap) pop() *seq {
	top := h.s[0]
	h.remove(0)
	return top
}

func (h *orderHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.s[i], h.s[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *orderHeap) down(i int) {
	n := len(h.s)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.before(h.s[l], h.s[best]) {
			best = l
		}
		if r < n && h.before(h.s[r], h.s[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *orderHeap) swap(i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	h.s[i].hidx = i
	h.s[j].hidx = j
}

// Stats reports manager occupancy.
type Stats struct {
	TotalPages     int
	FreePages      int
	ResidentSeqs   int
	EvictedSeqs    int
	ResidentTokens int
	// InternalFragTokens counts allocated-but-unused token slots (page
	// rounding waste), the fragmentation vLLM paging bounds.
	InternalFragTokens int
	Evictions          int64 // cumulative
	Reloads            int64 // cumulative

	// Shared-prefix cache occupancy and traffic (zero with PrefixOff).
	PrefixBlocks      int   // device-resident shared-prefix blocks
	PrefixHostBlocks  int   // host-tier (spilled) prefix blocks
	PrefixLookups     int64 // admits that probed the prefix cache
	PrefixHits        int64 // probes that reused at least one cached block
	PrefixTokensSaved int64 // prefill tokens skipped via cache hits
	PrefixSpills      int64 // blocks spilled device -> host
	PrefixSpillBytes  int64
	PrefixReloads     int64 // blocks restored host -> device
	PrefixReloadBytes int64
}

// Manager allocates KV-cache pages for sequences.
type Manager struct {
	cfg       Config
	pageBytes int64
	total     int
	free      int
	seqs      map[int]*seq
	admitted  int
	evictions int64
	reloads   int64

	resident orderHeap // resident sequences, newest admission on top
	evicted  orderHeap // host-resident sequences, oldest admission on top

	// Incrementally maintained occupancy counters (see Stats).
	residentTokens int
	fragTokens     int

	// Shared-prefix cache state (see prefix.go). Chains keep dropped
	// tombstones so recreation reuses the same lineage slot; the live
	// blocks are the prefixPages resident plus the hostPages spilled.
	groups      map[string]*prefixGroup
	idle        blockHeap // resident blocks with refcount 0, LRU on top
	host        blockHeap // host-tier blocks, LRU on top
	hostCap     int       // host-tier pages: -1 unbounded, 0 none, >0 bounded
	hostPages   int
	prefixPages int // device pages held by prefix blocks
	prefixStamp int // LRU clock, bumped per successful prefix admit
	prefixBorn  int // counter stamped on each block joining the live set

	prefixLookups     int64
	prefixHits        int64
	prefixTokensSaved int64
	prefixSpills      int64
	prefixSpillBytes  int64
	prefixReloads     int64
	prefixReloadBytes int64

	// Telemetry (see SetObserver); nil unless full-detail recording is
	// on, so the tier operations pay one nil-check when it is off.
	obs        *obs.Recorder
	obsReplica int
	obsNow     func() simtime.Time
}

// New creates a manager; capacity is rounded down to whole pages.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pageBytes := int64(cfg.PageTokens) * cfg.BytesPerToken
	total := int(cfg.CapacityBytes / pageBytes)
	if total <= 0 {
		return nil, fmt.Errorf("kvcache: capacity %d bytes holds no %d-byte pages", cfg.CapacityBytes, pageBytes)
	}
	hostCap := 0
	if cfg.Prefix == PrefixTiered {
		hostCap = -1
		if cfg.HostBytes > 0 {
			hostCap = int(cfg.HostBytes / pageBytes)
		}
	}
	return &Manager{
		cfg:       cfg,
		pageBytes: pageBytes,
		total:     total,
		free:      total,
		seqs:      make(map[int]*seq),
		resident:  orderHeap{max: true},
		evicted:   orderHeap{max: false},
		groups:    make(map[string]*prefixGroup),
		hostCap:   hostCap,
	}, nil
}

// SetObserver attaches a telemetry recorder: at full detail the manager
// records shared-prefix tier operations (spills, host drops, cache
// hits) that never surface as scheduler page ops. now supplies the
// simulated clock, which the manager does not track itself. Below full
// detail this is a no-op, so the tier paths stay branch-only.
func (m *Manager) SetObserver(rec *obs.Recorder, replica int, now func() simtime.Time) {
	if rec.Full() && now != nil {
		m.obs, m.obsReplica, m.obsNow = rec, replica, now
	}
}

// observe records one prefix-tier operation when telemetry is attached.
func (m *Manager) observe(kind obs.EventKind, req int, v int64) {
	if m.obs != nil {
		m.obs.KVOp(m.obsReplica, req, m.obsNow(), v, kind)
	}
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// PageBytes returns the size of one page in bytes.
func (m *Manager) PageBytes() int64 { return m.pageBytes }

// TotalPages returns the device page count.
func (m *Manager) TotalPages() int { return m.total }

// FreePages returns the currently free device page count.
func (m *Manager) FreePages() int { return m.free }

// pagesFor returns the pages a sequence of the given length needs.
func (m *Manager) pagesFor(tokens int) int {
	if m.cfg.Policy == MaxLen {
		return (m.cfg.MaxSeqLen + m.cfg.PageTokens - 1) / m.cfg.PageTokens
	}
	return (tokens + m.cfg.PageTokens - 1) / m.cfg.PageTokens
}

// CanAdmit reports whether a new sequence of the given length fits without
// eviction.
func (m *Manager) CanAdmit(tokens int) bool {
	return m.pagesFor(tokens) <= m.free
}

// CanEverAdmit reports whether a sequence that grows to maxTokens could
// ever hold device pages, even with every other sequence evicted. A
// request failing this check can never be served by this manager and
// must be rejected up front, or it would stall the admission queue
// forever.
func (m *Manager) CanEverAdmit(maxTokens int) bool {
	return maxTokens > 0 && maxTokens <= m.cfg.MaxSeqLen && m.pagesFor(maxTokens) <= m.total
}

// Admit allocates pages for a new sequence. It fails if the sequence is
// unknown to fit (callers decide eviction policy via EvictLast).
func (m *Manager) Admit(id, tokens int) error {
	if tokens <= 0 {
		return fmt.Errorf("kvcache: admit seq %d with %d tokens", id, tokens)
	}
	if tokens > m.cfg.MaxSeqLen {
		return fmt.Errorf("kvcache: seq %d length %d exceeds max %d", id, tokens, m.cfg.MaxSeqLen)
	}
	if _, ok := m.seqs[id]; ok {
		return fmt.Errorf("kvcache: seq %d already admitted", id)
	}
	need := m.pagesFor(tokens)
	if need > m.free {
		return fmt.Errorf("kvcache: seq %d needs %d pages, only %d free", id, need, m.free)
	}
	m.free -= need
	s := &seq{id: id, tokens: tokens, pages: need, order: m.admitted}
	m.seqs[id] = s
	m.admitted++
	m.resident.push(s)
	m.residentTokens += tokens
	m.fragTokens += need*m.cfg.PageTokens - tokens
	return nil
}

// ErrNoPages is the error Extend and ExtendRef return when the growth
// needs more pages than are free. It is returned bare: a scheduler
// under memory pressure meets it on every refused growth and only
// evicts and retries, so the refusal formats and allocates nothing.
var ErrNoPages = errors.New("kvcache: not enough free pages to extend the sequence")

// Extend grows a resident sequence by n tokens, allocating pages on demand.
// It returns the number of newly allocated pages, or ErrNoPages if memory
// is exhausted (callers should then evict and retry).
func (m *Manager) Extend(id, n int) (newPages int, err error) {
	s := m.seqs[id]
	if s == nil {
		return 0, fmt.Errorf("kvcache: extend unknown seq %d", id)
	}
	return m.extend(s, n)
}

// ExtendRef is Extend through a handle.
func (m *Manager) ExtendRef(r SeqRef, n int) (newPages int, err error) {
	if r.s == nil || r.s.released() {
		return 0, fmt.Errorf("kvcache: extend through the handle of a released sequence")
	}
	return m.extend(r.s, n)
}

// extend is the body of Extend and ExtendRef.
func (m *Manager) extend(s *seq, n int) (int, error) {
	if s.onHost {
		return 0, fmt.Errorf("kvcache: extend evicted seq %d", s.id)
	}
	if n <= 0 {
		return 0, fmt.Errorf("kvcache: extend seq %d by %d tokens", s.id, n)
	}
	if s.prefixTokens+s.tokens+n > m.cfg.MaxSeqLen {
		return 0, fmt.Errorf("kvcache: seq %d would exceed max length %d", s.id, m.cfg.MaxSeqLen)
	}
	// A resident sequence holds exactly pagesFor(tokens) pages, so growth
	// that fits its last page needs none: most decode steps skip the
	// division.
	need := 0
	if s.tokens+n > s.pages*m.cfg.PageTokens {
		need = m.pagesFor(s.tokens+n) - s.pages
	}
	if need > m.free {
		return 0, ErrNoPages
	}
	m.free -= need
	s.pages += need
	s.tokens += n
	m.residentTokens += n
	m.fragTokens += need*m.cfg.PageTokens - n
	return need, nil
}

// Resident reports whether the sequence holds device pages.
func (m *Manager) Resident(id int) bool { return m.Ref(id).Resident() }

// ResidentCount returns how many sequences hold device pages.
func (m *Manager) ResidentCount() int { return m.resident.len() }

// EvictedCount returns how many sequences live on the host.
func (m *Manager) EvictedCount() int { return m.evicted.len() }

// Tokens returns the cached token count of a sequence (0 if unknown),
// including any shared prefix it holds.
func (m *Manager) Tokens(id int) int {
	if s, ok := m.seqs[id]; ok {
		return s.prefixTokens + s.tokens
	}
	return 0
}

// SeqBytes returns the bytes a sequence's pages occupy.
func (m *Manager) SeqBytes(id int) int64 {
	if s, ok := m.seqs[id]; ok {
		return int64(s.pages) * m.pageBytes
	}
	return 0
}

// EvictLast evicts the most recently admitted resident sequence to host
// memory (the paper's policy: "the entire page for KV cache and sequence
// of the last added requests are evicted"). It returns the evicted
// sequence ID and the bytes moved, or ok=false if nothing is resident.
func (m *Manager) EvictLast() (id int, bytes int64, ok bool) {
	if m.resident.len() == 0 {
		return 0, 0, false
	}
	victim := m.resident.pop()
	bytes = int64(victim.pages) * m.pageBytes
	m.free += victim.pages
	m.residentTokens -= victim.tokens
	m.fragTokens -= victim.pages*m.cfg.PageTokens - victim.tokens
	victim.pages = 0
	victim.onHost = true
	m.evicted.push(victim)
	m.evictions++
	return victim.id, bytes, true
}

// OldestEvicted returns the host-resident sequence that was admitted
// first — the next reload candidate — without allocating.
func (m *Manager) OldestEvicted() (id int, ok bool) {
	if s := m.evicted.peek(); s != nil {
		return s.id, true
	}
	return 0, false
}

// Evicted returns the IDs of host-resident sequences, oldest first.
func (m *Manager) Evicted() []int {
	if m.evicted.len() == 0 {
		return nil
	}
	ids := make([]int, m.evicted.len())
	orders := make([]int, m.evicted.len())
	for i, s := range m.evicted.s {
		ids[i] = s.id
		orders[i] = s.order
	}
	sort.Sort(&byOrder{ids: ids, orders: orders})
	return ids
}

// byOrder sorts ids by their parallel admission orders.
type byOrder struct {
	ids    []int
	orders []int
}

func (b *byOrder) Len() int           { return len(b.ids) }
func (b *byOrder) Less(i, j int) bool { return b.orders[i] < b.orders[j] }
func (b *byOrder) Swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.orders[i], b.orders[j] = b.orders[j], b.orders[i]
}

// CanReload reports whether an evicted sequence fits back on device.
func (m *Manager) CanReload(id int) bool {
	s, ok := m.seqs[id]
	return ok && s.onHost && m.pagesFor(s.tokens) <= m.free
}

// Reload brings an evicted sequence back to device memory, returning the
// bytes moved over the host link.
func (m *Manager) Reload(id int) (bytes int64, err error) {
	s, ok := m.seqs[id]
	if !ok {
		return 0, fmt.Errorf("kvcache: reload unknown seq %d", id)
	}
	if !s.onHost {
		return 0, fmt.Errorf("kvcache: reload resident seq %d", id)
	}
	need := m.pagesFor(s.tokens)
	if need > m.free {
		return 0, fmt.Errorf("kvcache: reload seq %d needs %d pages, only %d free", id, need, m.free)
	}
	m.free -= need
	s.pages = need
	s.onHost = false
	m.evicted.remove(s.hidx)
	m.resident.push(s)
	m.residentTokens += s.tokens
	m.fragTokens += need*m.cfg.PageTokens - s.tokens
	m.reloads++
	return int64(need) * m.pageBytes, nil
}

// Release frees a finished sequence entirely. Shared prefix blocks are
// dereferenced, not freed: at refcount zero they stay cached for the
// next request of the same class until memory pressure spills them.
func (m *Manager) Release(id int) error {
	s, ok := m.seqs[id]
	if !ok {
		return fmt.Errorf("kvcache: release unknown seq %d", id)
	}
	for _, b := range s.prefix {
		b.refcnt--
		if b.refcnt == 0 {
			m.idle.push(b)
		}
	}
	if s.onHost {
		m.evicted.remove(s.hidx)
	} else {
		m.free += s.pages
		m.residentTokens -= s.tokens
		m.fragTokens -= s.pages*m.cfg.PageTokens - s.tokens
		m.resident.remove(s.hidx)
	}
	delete(m.seqs, id)
	return nil
}

// Stats returns an occupancy snapshot in O(1) from the incrementally
// maintained counters.
func (m *Manager) Stats() Stats {
	return Stats{
		TotalPages:         m.total,
		FreePages:          m.free,
		ResidentSeqs:       m.resident.len(),
		EvictedSeqs:        m.evicted.len(),
		ResidentTokens:     m.residentTokens,
		InternalFragTokens: m.fragTokens,
		Evictions:          m.evictions,
		Reloads:            m.reloads,
		PrefixBlocks:       m.prefixPages,
		PrefixHostBlocks:   m.hostPages,
		PrefixLookups:      m.prefixLookups,
		PrefixHits:         m.prefixHits,
		PrefixTokensSaved:  m.prefixTokensSaved,
		PrefixSpills:       m.prefixSpills,
		PrefixSpillBytes:   m.prefixSpillBytes,
		PrefixReloads:      m.prefixReloads,
		PrefixReloadBytes:  m.prefixReloadBytes,
	}
}

// Invariant checks internal consistency; tests call it after mutation
// sequences. It recounts every incrementally maintained quantity from
// scratch and cross-checks the heaps, so property tests catch counter
// drift as well as page-accounting bugs.
func (m *Manager) Invariant() error {
	used, residentTokens, fragTokens, residentSeqs, evictedSeqs := 0, 0, 0, 0, 0
	for id, s := range m.seqs {
		// Ref(id) must hand out a live handle on the same record.
		if s.id != id || s.released() {
			return fmt.Errorf("kvcache: seq map entry %d holds seq %d (released %v)", id, s.id, s.released())
		}
		if s.onHost {
			if s.pages != 0 {
				return fmt.Errorf("kvcache: evicted seq %d still holds %d pages", s.id, s.pages)
			}
			evictedSeqs++
		} else {
			if s.pages != m.pagesFor(s.tokens) {
				return fmt.Errorf("kvcache: seq %d holds %d pages for %d tokens", s.id, s.pages, s.tokens)
			}
			residentSeqs++
			residentTokens += s.tokens
			fragTokens += s.pages*m.cfg.PageTokens - s.tokens
		}
		used += s.pages
	}
	if used+m.prefixPages+m.free != m.total {
		return fmt.Errorf("kvcache: page accounting broken: used %d + prefix %d + free %d != total %d",
			used, m.prefixPages, m.free, m.total)
	}
	if residentSeqs != m.resident.len() || evictedSeqs != m.evicted.len() {
		return fmt.Errorf("kvcache: heap sizes resident=%d evicted=%d, recount resident=%d evicted=%d",
			m.resident.len(), m.evicted.len(), residentSeqs, evictedSeqs)
	}
	if residentTokens != m.residentTokens {
		return fmt.Errorf("kvcache: resident tokens counter %d, recount %d", m.residentTokens, residentTokens)
	}
	if fragTokens != m.fragTokens {
		return fmt.Errorf("kvcache: frag tokens counter %d, recount %d", m.fragTokens, fragTokens)
	}
	for _, h := range []*orderHeap{&m.resident, &m.evicted} {
		for i, s := range h.s {
			if s.hidx != i {
				return fmt.Errorf("kvcache: seq %d heap index %d, stored at %d", s.id, s.hidx, i)
			}
			if i > 0 && h.before(s, h.s[(i-1)/2]) {
				return fmt.Errorf("kvcache: heap property violated at index %d (seq %d)", i, s.id)
			}
			if got, ok := m.seqs[s.id]; !ok || got != s {
				return fmt.Errorf("kvcache: heap entry %d not in sequence map", s.id)
			}
			if s.onHost != !h.max {
				return fmt.Errorf("kvcache: seq %d onHost=%v in wrong heap", s.id, s.onHost)
			}
		}
	}
	return m.prefixInvariant()
}
