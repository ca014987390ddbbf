package cluster

// Incremental routing views. Routers and admission policies see the
// active replicas of one role as a []ReplicaState in slot order. Every
// arrival needs that slice, but between two arrivals only the replicas
// that stepped or took a request change, so the cluster keeps one view
// per role and re-reads only those replicas: per-arrival cost follows
// the replicas that moved, not the fleet width.

// routeView is one role's routing view: the state of every active
// replica of the role, in slot order. ok is false once a lifecycle
// change has made the membership stale; the next use rebuilds it.
type routeView struct {
	states []ReplicaState
	ok     bool
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
func (c *Cluster) view(role Role) []ReplicaState {
	for _, i := range c.dirty {
		rep := c.replicas[i]
		rep.dirty = false
		if rep.viewPos >= 0 && c.views[rep.role].ok {
			c.views[rep.role].states[rep.viewPos].load(rep)
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
				states = append(states, ReplicaState{Index: i})
				states[len(states)-1].load(rep)
			}
		}
		v.states, v.ok = states, true
	}
	return v.states
}

// load re-reads a replica's queue and clock signals.
func (s *ReplicaState) load(rep *replica) {
	s.QueuedTokens = rep.sim.QueuedTokens()
	s.QueuedRequests = rep.sim.QueuedRequests()
	s.Clock = rep.sim.Clock()
}

// routable returns the routing- and admission-visible state of every
// active replica of the given role, in slot order. ReplicaState.Index
// carries the global slot, so routers index the returned slice and the
// cluster maps the choice back. cacheKey is the arriving request's
// prefix cache key (Request.CacheKey: the session key for conversation
// traffic, the class name otherwise), used to surface per-replica
// cached-prefix depth to prefix-affinity routers.
//
// The slice is the role's view itself, valid until the cluster next
// steps, pushes to, or changes the lifecycle of a replica. Prefix
// depth depends on the key, so it is probed on every call, but only
// when some replica caches prefixes at all (a prefix-off replica
// reports zero for every key); the device-resident depth is probed only
// for the telemetry recorder's regret model.
func (c *Cluster) routable(cacheKey string, role Role) []ReplicaState {
	states := c.view(role)
	if c.prefixProbe {
		for k := range states {
			s := &states[k]
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
	return states
}
