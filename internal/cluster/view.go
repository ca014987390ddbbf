package cluster

import (
	"math"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// Incremental routing views. Routers and admission policies see the
// active replicas of one role as a []ReplicaState in slot order. Every
// arrival needs that slice, but between two arrivals only the replicas
// that stepped or took a request change, so the cluster keeps one view
// per role and re-reads only those replicas. Each view also keeps
// running sums of the load signals, and a min tree over them when its
// router is least-loaded, so the built-in policies admit and route
// from those aggregates: per-arrival cost follows the replicas that
// moved, not the fleet width.
//
// The min tree is updated as the view re-reads replicas, between
// decisions. A replica's queued tokens fall at every decode step, so
// most re-reads change its key, and one tree update costs about as much
// as scanning eight states. When more keys change between two
// decisions than that pays for (a narrow view, or a saturated fleet
// stepping many replicas per arrival), the view stops updating the
// tree, the decision scans the states instead, and a later decision
// that finds few changes rebuilds the tree.

// routeView is one role's routing view: the state of every active
// replica of the role, in slot order. ok is false once a lifecycle
// change has made the membership stale; the next use rebuilds it.
type routeView struct {
	states []ReplicaState
	ok     bool

	// queuedRequests and queuedTokens sum the states' QueuedRequests
	// and QueuedTokens.
	queuedRequests int
	queuedTokens   int64

	// router routes over this view (the stage-1 router for the unified
	// or prefill view, the decode router for the decode view). fast is
	// the same router when it answers from the view's aggregates; the
	// min tree is kept only then.
	router Router
	fast   viewRouter

	// The min tree and its upkeep: changed counts the token changes
	// re-read since the last decision, and stale marks a tree that
	// missed some of them and must be rebuilt before use.
	tree    loadTree
	changed int
	stale   bool
}

// viewRouter is implemented by built-in routers that answer from a
// routing view's aggregates instead of scanning its states. The
// cluster resolves it once, in New; a wrapped router hides it and is
// offered the slice.
type viewRouter interface {
	routeFrom(req workload.Request, v *routeView) int
}

// viewAdmission is viewRouter's counterpart for admission policies.
type viewAdmission interface {
	admitFrom(req workload.Request, v *routeView) bool
}

// setRouter makes r the router of the view, keeping the min tree when r
// answers from it.
func (v *routeView) setRouter(r Router) {
	v.router = r
	v.fast, _ = r.(viewRouter)
}

// route asks the view's router for a position in v: from the view's
// aggregates when the router answers from them, by offering the states
// otherwise.
func (v *routeView) route(req workload.Request) int {
	if v.fast != nil {
		return v.fast.routeFrom(req, v)
	}
	return v.router.Route(req, v.states)
}

// admit asks the cluster's admission policy about req, with v the
// stage-1 view, along the same two paths as routeView.route takes.
func (c *Cluster) admit(req workload.Request, v *routeView) bool {
	if c.fastAdmission != nil {
		return c.fastAdmission.admitFrom(req, v)
	}
	return c.admission.Admit(req, v.states)
}

// setState moves replica i through its lifecycle. Every transition
// invalidates the role's view, so membership changes (activation,
// drain, failure, retirement) rebuild it on its next use.
func (c *Cluster) setState(i int, state lifecycle) {
	rep := c.replicas[i]
	rep.state = state
	c.views[rep.role].ok = false
}

// markDirty queues replica i's load signals for re-reading. refreshEvent
// calls it after every Step and Push, the only calls that change them.
func (c *Cluster) markDirty(i int) {
	if rep := c.replicas[i]; !rep.dirty {
		rep.dirty = true
		c.dirty = append(c.dirty, int32(i))
	}
}

// view returns role's routing view with current membership and with the
// load signals of every replica that changed since the last call
// re-read.
func (c *Cluster) view(role Role) *routeView {
	for _, i := range c.dirty {
		rep := c.replicas[i]
		rep.dirty = false
		if v := &c.views[rep.role]; rep.viewPos >= 0 && v.ok {
			v.put(int(rep.viewPos), rep.sim.QueuedTokens(), rep.sim.QueuedRequests(), rep.sim.Clock())
		}
	}
	c.dirty = c.dirty[:0]
	v := &c.views[role]
	if !v.ok {
		states := v.states[:0]
		if states == nil {
			states = make([]ReplicaState, 0, len(c.replicas))
		}
		for i, rep := range c.replicas {
			if rep.role != role {
				continue
			}
			rep.viewPos = -1
			if rep.state == stateActive {
				rep.viewPos = int32(len(states))
				states = append(states, ReplicaState{
					Index:          i,
					QueuedTokens:   rep.sim.QueuedTokens(),
					QueuedRequests: rep.sim.QueuedRequests(),
					Clock:          rep.sim.Clock(),
				})
			}
		}
		v.states, v.ok = states, true
		v.aggregate()
	}
	return v
}

// aggregate recomputes the sums from the states and leaves the min
// tree to be rebuilt by the next decision.
func (v *routeView) aggregate() {
	v.queuedRequests, v.queuedTokens = 0, 0
	for _, s := range v.states {
		v.queuedRequests += s.QueuedRequests
		v.queuedTokens += s.QueuedTokens
	}
	v.changed, v.stale = 0, true
}

// put writes position pos's load signals, applying their changes to the
// sums and noting a token change for the min tree.
func (v *routeView) put(pos int, tokens int64, requests int, clock simtime.Time) {
	s := &v.states[pos]
	v.queuedRequests += requests - s.QueuedRequests
	if tokens != s.QueuedTokens {
		v.queuedTokens += tokens - s.QueuedTokens
		if v.fast != nil {
			v.changed++
			if v.changed > v.treeBudget() {
				v.stale = true
			} else if !v.stale {
				v.tree.set(pos, tokens)
			}
		}
	}
	s.QueuedTokens, s.QueuedRequests, s.Clock = tokens, requests, clock
}

// treeBudget is how many token changes per decision the min tree takes
// before a scan is the cheaper answer: one tree update costs about as
// much as scanning eight states.
func (v *routeView) treeBudget() int { return len(v.states) / 8 }

// pickLeastLoaded returns the position least-loaded routing picks, the
// fewest queued tokens with ties toward the lowest position: from the
// min tree, or, when more keys changed since the last decision than the
// tree takes, by a scan.
func (v *routeView) pickLeastLoaded(req workload.Request) int {
	changed := v.changed
	v.changed = 0
	if v.stale {
		if changed > v.treeBudget() {
			return leastLoaded{}.Route(req, v.states)
		}
		v.tree.build(v.states)
		v.stale = false
	}
	return v.tree.min()
}

// routable returns the routing view of every active replica of the
// given role, in slot order, with the routing- and admission-visible
// state of each. ReplicaState.Index carries the global slot, so routers
// index the view's states and the cluster maps the choice back.
// cacheKey is the arriving request's prefix cache key
// (Request.CacheKey: the session key for conversation traffic, the
// class name otherwise), used to surface per-replica cached-prefix
// depth to prefix-affinity routers.
//
// The states are valid until the cluster next steps, pushes to, or
// changes the lifecycle of a replica. Prefix depth depends on the key,
// so it is probed on every call, but only when some replica caches
// prefixes at all (a prefix-off replica reports zero for every key);
// the device-resident depth is probed only for the telemetry
// recorder's regret model.
func (c *Cluster) routable(cacheKey string, role Role) *routeView {
	v := c.view(role)
	if c.prefixProbe {
		for k := range v.states {
			s := &v.states[k]
			s.PrefixTokens, s.DevicePrefixTokens = 0, 0
			if cacheKey == "" {
				continue
			}
			sim := c.replicas[s.Index].sim
			s.PrefixTokens = sim.PrefixCachedTokens(cacheKey)
			if c.cfg.Obs != nil {
				s.DevicePrefixTokens = sim.DevicePrefixCachedTokens(cacheKey)
			}
		}
	}
	return v
}

// loadTree is a winner tree over a view's positions keyed by
// (QueuedTokens, position), so its root is the position least-loaded
// routing picks: the fewest queued tokens, ties toward the lowest
// position. Like eventTree, each node holds a copy of the key that wins
// its subtree, and a left subtree's positions all precede its right
// sibling's, so a match goes right only on strictly fewer tokens.
// Padding leaves past the last position hold math.MaxInt64 and lose
// every tie to real positions.
type loadTree struct {
	node   []loadNode // node[1] is the root, node[leaves+i] is position i's leaf
	leaves int        // a power of two
}

type loadNode struct {
	tokens int64
	pos    int32
}

// build resets the tree to the states' keys.
func (t *loadTree) build(states []ReplicaState) {
	leaves := 1
	for leaves < len(states) {
		leaves <<= 1
	}
	if cap(t.node) < 2*leaves {
		t.node = make([]loadNode, 2*leaves)
	}
	t.node, t.leaves = t.node[:2*leaves], leaves
	for i := range leaves {
		n := loadNode{tokens: math.MaxInt64, pos: int32(i)}
		if i < len(states) {
			n.tokens = states[i].QueuedTokens
		}
		t.node[leaves+i] = n
	}
	for p := leaves - 1; p >= 1; p-- {
		t.play(p)
	}
}

// play replays the match at internal node p from its children.
func (t *loadTree) play(p int) {
	l, r := t.node[2*p], t.node[2*p+1]
	if r.tokens < l.tokens {
		l = r
	}
	t.node[p] = l
}

// min returns the winning position.
func (t *loadTree) min() int { return int(t.node[1].pos) }

// set changes position i's tokens. Queued tokens fall at every decode
// step and rise only when a request is placed, so the two directions
// climb differently. A decrease can only win matches: it climbs while
// the position beats the stored winner (or is the stored winner) and
// stops at the first match another position still wins. An increase
// can only lose matches the position won: it replays them and stops at
// the first match it did not win, whose winner is unchanged.
func (t *loadTree) set(i int, tokens int64) {
	p := t.leaves + i
	old := t.node[p].tokens
	if tokens == old {
		return
	}
	me := loadNode{tokens: tokens, pos: int32(i)}
	t.node[p] = me
	if tokens < old {
		for p >>= 1; p >= 1; p >>= 1 {
			w := t.node[p]
			if w.pos != me.pos && (w.tokens < tokens || w.tokens == tokens && w.pos < me.pos) {
				return
			}
			t.node[p] = me
		}
		return
	}
	for p >>= 1; p >= 1 && t.node[p].pos == me.pos; p >>= 1 {
		t.play(p)
	}
}
