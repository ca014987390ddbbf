// Shared-prefix block caching with a tiered CPU offload path.
//
// Requests that declare a prefix key (their traffic class) share the
// leading page-aligned portion of their prompt: the KV pages for those
// tokens live in reference-counted prefix blocks rather than in the
// owning sequence. Blocks form one chain per key — a branch of the
// shared-prefix tree — and each block's identity is the hash of its
// token-range lineage (the chain of hashes from the key root), so equal
// hashes mean equal cached content by construction.
//
// Blocks are acquired on admit and released on sequence completion.
// A block whose refcount drops to zero stays on device (it is exactly
// the reusable cache) until memory pressure spills it: under the tiered
// mode spilled blocks move to a bounded host tier and are reloaded over
// the host link on the next hit; without a tier they are dropped and the
// next request recomputes them.
//
// Spill order is least-recently-used, kept in two intrusive min-heaps:
// idle holds the device-resident blocks at refcount zero (spill
// candidates), host holds the host-tier blocks (drop candidates when
// the tier is full). Both are keyed by (lastUse, born). lastUse is the
// stamp of the block's last acquiring admit, so every block one admit
// acquires shares it; born is stamped when the block joins the live set
// (created, or recreated after a drop, but not reloaded from host), so
// ties go to the block cached first. An admit first takes the blocks it
// needs out of both heaps, then spills from the top of idle until its
// pages fit; the heaps never hold a block the admit is about to use.
package kvcache

import (
	"fmt"

	"repro/internal/obs"
)

// PrefixMode selects shared-prefix block caching.
type PrefixMode int

const (
	// PrefixOff disables prefix caching (the default; every request pays
	// full prefill).
	PrefixOff PrefixMode = iota
	// PrefixDevice caches prefix blocks in device memory only; blocks
	// spilled under memory pressure are dropped.
	PrefixDevice
	// PrefixTiered spills idle prefix blocks to host memory and reloads
	// them over the host link on the next hit.
	PrefixTiered
)

// ParsePrefixMode converts the CLI values ("off", "gpu", "tiered").
func ParsePrefixMode(s string) (PrefixMode, error) {
	switch s {
	case "", "off":
		return PrefixOff, nil
	case "gpu", "device":
		return PrefixDevice, nil
	case "tiered", "cpu":
		return PrefixTiered, nil
	default:
		return 0, fmt.Errorf("kvcache: unknown prefix mode %q (want off|gpu|tiered)", s)
	}
}

func (p PrefixMode) String() string {
	switch p {
	case PrefixDevice:
		return "gpu"
	case PrefixTiered:
		return "tiered"
	default:
		return "off"
	}
}

type blockState uint8

const (
	blockDropped  blockState = iota // no memory anywhere; recomputed on next use
	blockResident                   // holds one device page
	blockHost                       // spilled to the host tier (one page of host bytes)
)

// prefixBlock is one page-sized span of a shared prefix chain. Fields
// are ordered so the struct packs into 64 bytes.
type prefixBlock struct {
	key     string
	hash    uint64 // token-range lineage hash (root = key hash, child = hash(parent, index))
	refcnt  int    // sequences currently holding this block; spill only at zero
	lastUse int    // admission stamp of the last acquire, for LRU spill order
	born    int    // stamp taken when the block joined the live set: the LRU tie-break
	hidx    int    // slot in the idle or host heap, -1 when in neither
	index   int32  // position in the chain, covering tokens [index*PageTokens, (index+1)*PageTokens)
	state   blockState
}

// blockHeap is an intrusive binary min-heap of prefix blocks keyed by
// (lastUse, born): the least-recently-used block on top, ties to the
// block that joined the live set first. Like orderHeap, every member's
// hidx tracks its slot so arbitrary removal stays O(log n). Sifts move
// a hole rather than swapping, writing each slot once.
type blockHeap struct {
	s []*prefixBlock
}

func (h *blockHeap) before(a, b *prefixBlock) bool {
	if a.lastUse != b.lastUse {
		return a.lastUse < b.lastUse
	}
	return a.born < b.born
}

func (h *blockHeap) len() int { return len(h.s) }

func (h *blockHeap) push(x *prefixBlock) {
	h.s = append(h.s, x)
	h.up(x, len(h.s)-1)
}

// remove deletes the element at heap index i. The last element refills
// the hole; having come from the bottom it usually belongs near it, so
// the hole first walks down the smaller-child path to a leaf (one
// comparison per level) and the element then sifts up from there.
func (h *blockHeap) remove(i int) {
	h.s[i].hidx = -1
	n := len(h.s) - 1
	last := h.s[n]
	h.s[n] = nil
	h.s = h.s[:n]
	if i == n {
		return
	}
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.before(h.s[c+1], h.s[c]) {
			c++
		}
		h.s[i] = h.s[c]
		h.s[i].hidx = i
		i = c
	}
	h.up(last, i)
}

func (h *blockHeap) pop() *prefixBlock {
	top := h.s[0]
	h.remove(0)
	return top
}

// up places x in the hole at index i and sifts it toward the root.
func (h *blockHeap) up(x *prefixBlock, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(x, h.s[p]) {
			break
		}
		h.s[i] = h.s[p]
		h.s[i].hidx = i
		i = p
	}
	h.s[i] = x
	x.hidx = i
}

// prefixGroup is the chain of blocks for one prefix key.
type prefixGroup struct {
	key    string
	root   uint64 // lineage hash root: the key hash
	blocks []*prefixBlock
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// keyHash digests a prefix key into the root of its lineage chain.
func keyHash(key string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// lineageHash derives a block's identity from its parent's hash and its
// chain index.
func lineageHash(parent uint64, index int) uint64 {
	h := parent
	v := uint64(index)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// PrefixAdmit reports what AdmitWithPrefix reused, created, and moved.
type PrefixAdmit struct {
	CachedTokens int // prefix tokens served from cache instead of prefill
	NewTokens    int // prefix tokens newly published for later requests

	ReloadOps   int   // blocks restored host -> device for this admit
	ReloadBytes int64 // bytes those restores moved over the host link
	SpillOps    int   // blocks spilled device -> host to make room
	SpillBytes  int64 // bytes those spills moved over the host link
}

// alignedPrefix returns the page-aligned shareable portion of a prefix.
func (m *Manager) alignedPrefix(key string, prefixLen, tokens int) int {
	if m.cfg.Prefix == PrefixOff || key == "" || prefixLen <= 0 {
		return 0
	}
	if prefixLen > tokens {
		prefixLen = tokens
	}
	return prefixLen - prefixLen%m.cfg.PageTokens
}

// classify counts the chain blocks an admit would reload and create,
// and the needed blocks it would hit that sit idle: those are in the
// idle heap but may not be spilled to make room for the admit itself.
func (m *Manager) classify(g *prefixGroup, nblocks int) (reloads, creates, idleHits int) {
	for i := 0; i < nblocks; i++ {
		if g == nil || i >= len(g.blocks) {
			creates++
			continue
		}
		b := g.blocks[i]
		switch b.state {
		case blockResident:
			if b.refcnt == 0 {
				idleHits++
			}
		case blockHost:
			reloads++
		default:
			creates++
		}
	}
	return reloads, creates, idleHits
}

// pull takes the first nblocks blocks of a chain out of the idle and
// host heaps, so the spills that make room for an admit cannot pick the
// blocks it is about to acquire or reload.
func (m *Manager) pull(g *prefixGroup, nblocks int) {
	for i := 0; i < nblocks && i < len(g.blocks); i++ {
		b := g.blocks[i]
		if b.hidx < 0 {
			continue
		}
		if b.state == blockHost {
			m.host.remove(b.hidx)
		} else {
			m.idle.remove(b.hidx)
		}
	}
}

// unpull returns blocks taken out by pull to the heaps their state
// belongs in.
func (m *Manager) unpull(g *prefixGroup, nblocks int) {
	for i := 0; i < nblocks && i < len(g.blocks); i++ {
		switch b := g.blocks[i]; {
		case b.state == blockHost:
			m.host.push(b)
		case b.state == blockResident && b.refcnt == 0:
			m.idle.push(b)
		}
	}
}

// spillOne spills the least-recently-used idle device block to the host
// tier (or drops it when no tier has room), freeing one device page. It
// returns the bytes moved to host; dropped blocks move nothing.
func (m *Manager) spillOne() (bytes int64, ok bool) {
	if m.idle.len() == 0 {
		return 0, false
	}
	victim := m.idle.pop()
	m.free++
	m.prefixPages--
	if m.hostCap != 0 {
		if m.hostCap > 0 && m.hostPages >= m.hostCap {
			m.dropOldestHost()
		}
		if m.hostCap < 0 || m.hostPages < m.hostCap {
			victim.state = blockHost
			m.host.push(victim)
			m.hostPages++
			m.prefixSpills++
			m.prefixSpillBytes += m.pageBytes
			m.observe(obs.EvPrefixSpill, -1, m.pageBytes)
			return m.pageBytes, true
		}
	}
	m.removeBlock(victim)
	m.observe(obs.EvPrefixDrop, -1, m.pageBytes)
	return 0, true
}

// dropOldestHost evicts the least-recently-used host-tier block that no
// in-flight admit needs.
func (m *Manager) dropOldestHost() {
	if m.host.len() == 0 {
		return
	}
	victim := m.host.pop()
	m.hostPages--
	m.removeBlock(victim)
	m.observe(obs.EvPrefixDrop, -1, m.pageBytes)
}

// removeBlock drops a block that is in neither heap: its chain slot
// becomes a tombstone a later admit recreates in place.
func (m *Manager) removeBlock(b *prefixBlock) {
	b.state = blockDropped
	b.refcnt = 0
}

// SpillIdlePrefix spills (or drops, without a host tier) up to n idle
// prefix blocks, freeing their device pages for sequence growth. It
// returns the bytes moved to host and the number of pages freed.
func (m *Manager) SpillIdlePrefix(n int) (bytes int64, freed int) {
	for i := 0; i < n; i++ {
		b, ok := m.spillOne()
		if !ok {
			break
		}
		bytes += b
		freed++
	}
	return bytes, freed
}

// CanAdmitWithPrefix reports whether AdmitWithPrefix would succeed,
// counting idle prefix blocks the admit may spill to make room. It
// mutates nothing.
func (m *Manager) CanAdmitWithPrefix(tokens int, key string, prefixLen int) bool {
	if m.cfg.Prefix == PrefixOff {
		return m.CanAdmit(tokens)
	}
	aligned := m.alignedPrefix(key, prefixLen, tokens)
	var g *prefixGroup
	if aligned > 0 {
		g = m.groups[key]
	}
	reloads, creates, idleHits := m.classify(g, aligned/m.cfg.PageTokens)
	need := m.pagesFor(tokens-aligned) + reloads + creates
	return need <= m.free+m.idle.len()-idleHits
}

// AdmitWithPrefix admits a sequence whose leading prefixLen tokens are
// shared under key: page-aligned prefix pages come from the shared block
// chain (cache hits skip their prefill compute), and idle blocks are
// spilled as needed to make room. With prefix caching off it behaves
// exactly like Admit. The result prices the admit's host-link traffic
// and tells the scheduler how many prompt tokens the cache covered. A
// failed admit leaves the manager unchanged.
func (m *Manager) AdmitWithPrefix(id, tokens int, key string, prefixLen int) (PrefixAdmit, error) {
	var res PrefixAdmit
	if m.cfg.Prefix == PrefixOff {
		return res, m.Admit(id, tokens)
	}
	if tokens <= 0 {
		return res, fmt.Errorf("kvcache: admit seq %d with %d tokens", id, tokens)
	}
	if tokens > m.cfg.MaxSeqLen {
		return res, fmt.Errorf("kvcache: seq %d length %d exceeds max %d", id, tokens, m.cfg.MaxSeqLen)
	}
	if _, ok := m.seqs[id]; ok {
		return res, fmt.Errorf("kvcache: seq %d already admitted", id)
	}
	if prefixLen < 0 || prefixLen > tokens {
		return res, fmt.Errorf("kvcache: seq %d prefix %d outside [0,%d]", id, prefixLen, tokens)
	}
	aligned := m.alignedPrefix(key, prefixLen, tokens)
	nblocks := aligned / m.cfg.PageTokens
	var g *prefixGroup
	if nblocks > 0 {
		g = m.groups[key]
	}
	reloads, creates, idleHits := m.classify(g, nblocks)
	private := tokens - aligned
	need := m.pagesFor(private) + reloads + creates
	if spillable := m.idle.len() - idleHits; need > m.free+spillable {
		return res, fmt.Errorf("kvcache: seq %d needs %d pages, only %d free (+%d spillable)",
			id, need, m.free, spillable)
	}
	if nblocks > 0 && g == nil {
		g = &prefixGroup{key: key, root: keyHash(key)}
		m.groups[key] = g
	}
	m.pull(g, nblocks)
	for need > m.free {
		bytes, ok := m.spillOne()
		if !ok {
			m.unpull(g, nblocks)
			return res, fmt.Errorf("kvcache: seq %d needs %d pages, only %d free", id, need, m.free)
		}
		if bytes > 0 {
			res.SpillOps++
			res.SpillBytes += bytes
		}
	}

	// Extend the chain with tombstones for blocks this admit creates.
	if g != nil {
		for len(g.blocks) < nblocks {
			parent := g.root
			if n := len(g.blocks); n > 0 {
				parent = g.blocks[n-1].hash
			}
			b := &prefixBlock{
				key:   g.key,
				index: int32(len(g.blocks)),
				hash:  lineageHash(parent, len(g.blocks)),
				hidx:  -1,
			}
			g.blocks = append(g.blocks, b)
		}
	}

	m.prefixStamp++
	stamp := m.prefixStamp
	s := &seq{id: id, tokens: private, order: m.admitted, prefixTokens: aligned}
	if nblocks > 0 {
		s.prefix = make([]*prefixBlock, nblocks)
	}
	for i := 0; i < nblocks; i++ {
		b := g.blocks[i]
		switch b.state {
		case blockResident:
			res.CachedTokens += m.cfg.PageTokens
		case blockHost:
			m.hostPages--
			m.free--
			m.prefixPages++
			b.state = blockResident
			m.prefixReloads++
			m.prefixReloadBytes += m.pageBytes
			res.ReloadOps++
			res.ReloadBytes += m.pageBytes
			res.CachedTokens += m.cfg.PageTokens
		default: // dropped tombstone or fresh block: recompute and publish
			m.free--
			m.prefixPages++
			b.state = blockResident
			m.prefixBorn++
			b.born = m.prefixBorn
			res.NewTokens += m.cfg.PageTokens
		}
		b.refcnt++
		b.lastUse = stamp
		s.prefix[i] = b
	}
	pages := m.pagesFor(private)
	m.free -= pages
	s.pages = pages
	m.seqs[id] = s
	m.admitted++
	m.resident.push(s)
	m.residentTokens += private
	m.fragTokens += pages*m.cfg.PageTokens - private
	if aligned > 0 {
		m.prefixLookups++
		if res.CachedTokens > 0 {
			m.prefixHits++
			m.observe(obs.EvPrefixHit, id, int64(res.CachedTokens))
		}
		m.prefixTokensSaved += int64(res.CachedTokens)
	}
	return res, nil
}

// PrefixCachedTokens returns how many leading prefix tokens of key are
// currently cached (device- or host-resident): the longest-cached-prefix
// score the affinity router ranks replicas by.
func (m *Manager) PrefixCachedTokens(key string) int {
	g := m.groups[key]
	if g == nil {
		return 0
	}
	n := 0
	for _, b := range g.blocks {
		if b.state == blockDropped {
			break
		}
		n += m.cfg.PageTokens
	}
	return n
}

// DevicePrefixCachedTokens returns how many leading prefix tokens of
// key are device-resident right now — coverage a hit serves without
// recompute or a host-link reload. The counterfactual routing-regret
// cost model scores candidates with this, not PrefixCachedTokens:
// host-spilled coverage still prices a reload, so counting it as free
// would hide exactly the churn a prefix-blind router causes.
func (m *Manager) DevicePrefixCachedTokens(key string) int {
	g := m.groups[key]
	if g == nil {
		return 0
	}
	n := 0
	for _, b := range g.blocks {
		if b.state != blockResident {
			break
		}
		n += m.cfg.PageTokens
	}
	return n
}

// prefixInvariant recounts the prefix-block bookkeeping: per-block
// refcounts against the sequences holding them, chain lineage hashes,
// block residency against the page counters, host-tier occupancy, and
// the idle and host heaps against the chains. It is the only walk over
// every prefix block.
func (m *Manager) prefixInvariant() error {
	if m.cfg.Prefix == PrefixOff {
		if len(m.groups) != 0 || m.idle.len() != 0 || m.host.len() != 0 || m.prefixPages != 0 || m.hostPages != 0 {
			return fmt.Errorf("kvcache: prefix state present with prefix caching off")
		}
	}
	refs := make(map[*prefixBlock]int)
	for _, s := range m.seqs {
		if len(s.prefix)*m.cfg.PageTokens != s.prefixTokens {
			return fmt.Errorf("kvcache: seq %d prefix tokens %d != %d blocks", s.id, s.prefixTokens, len(s.prefix))
		}
		for _, b := range s.prefix {
			if b.state != blockResident {
				return fmt.Errorf("kvcache: seq %d references non-resident prefix block %d/%q", s.id, b.index, b.key)
			}
			refs[b]++
		}
	}
	inChain := make(map[*prefixBlock]bool)
	resident, host, idle := 0, 0, 0
	for key, g := range m.groups {
		if g.key != key || g.root != keyHash(key) {
			return fmt.Errorf("kvcache: prefix group %q mislabeled", key)
		}
		parent := g.root
		for i, b := range g.blocks {
			if b.key != key || int(b.index) != i {
				return fmt.Errorf("kvcache: block %d/%q misplaced in chain %q at %d", b.index, b.key, key, i)
			}
			if want := lineageHash(parent, i); b.hash != want {
				return fmt.Errorf("kvcache: block %d/%q lineage hash %x, want %x", i, key, b.hash, want)
			}
			parent = b.hash
			inChain[b] = true
			if b.refcnt != refs[b] {
				return fmt.Errorf("kvcache: block %d/%q refcount %d, recount %d", b.index, b.key, b.refcnt, refs[b])
			}
			var h *blockHeap
			switch b.state {
			case blockResident:
				resident++
				if b.refcnt == 0 {
					idle++
					h = &m.idle
				}
			case blockHost:
				host++
				h = &m.host
				if b.refcnt != 0 {
					return fmt.Errorf("kvcache: host block %d/%q has refcount %d", b.index, b.key, b.refcnt)
				}
			}
			if h == nil {
				if b.hidx != -1 {
					return fmt.Errorf("kvcache: block %d/%q (state %d, refcount %d) has heap index %d outside any heap",
						b.index, b.key, b.state, b.refcnt, b.hidx)
				}
			} else if b.hidx < 0 || b.hidx >= h.len() || h.s[b.hidx] != b {
				return fmt.Errorf("kvcache: block %d/%q (state %d) missing from its heap at index %d",
					b.index, b.key, b.state, b.hidx)
			}
		}
	}
	for b := range refs {
		if !inChain[b] {
			return fmt.Errorf("kvcache: referenced block %d/%q not in its chain", b.index, b.key)
		}
	}
	if resident != m.prefixPages {
		return fmt.Errorf("kvcache: prefix pages counter %d, recount %d", m.prefixPages, resident)
	}
	if host != m.hostPages {
		return fmt.Errorf("kvcache: host pages counter %d, recount %d", m.hostPages, host)
	}
	if m.hostCap >= 0 && host > m.hostCap {
		return fmt.Errorf("kvcache: host tier holds %d pages, capacity %d", host, m.hostCap)
	}
	// Every chain block a heap should hold sits at the slot its hidx
	// names, so equal sizes mean the heaps hold nothing else.
	if idle != m.idle.len() || host != m.host.len() {
		return fmt.Errorf("kvcache: heap sizes idle=%d host=%d, recount idle=%d host=%d",
			m.idle.len(), m.host.len(), idle, host)
	}
	for _, h := range []*blockHeap{&m.idle, &m.host} {
		for i := 1; i < h.len(); i++ {
			if b := h.s[i]; h.before(b, h.s[(i-1)/2]) {
				return fmt.Errorf("kvcache: block heap order violated at index %d (block %d/%q)", i, b.index, b.key)
			}
		}
	}
	return nil
}
