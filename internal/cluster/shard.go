// Sharded cluster execution: the replica-stepping half of the
// simulation loop fans out across worker goroutines while routing and
// admission stay on the coordinator in arrival order. The construction
// preserves bit-identity with the sequential run because (a) replicas
// in a static unified fleet never interact — each one's step sequence
// depends only on the requests pushed to it, (b) every routing decision
// happens with all replicas advanced exactly to the arrival instant
// behind an epoch barrier, and (c) per-shard metric state is integer
// (counters and sketch buckets), so the end-of-run merge is exact and
// order-free; retained records land at their own ID in a table the
// coordinator only grows while the workers are parked. Config.Validate
// rejects every configuration that would break one of those properties
// (disaggregation, scalers, fleet events, Obs, OnRecord).

package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// clusterShard owns the replicas in slots id, id+stride, id+2*stride,
// ...: their event tree (local index j maps to global slot id +
// j*stride), the in-flight records and accumulator for requests placed
// on them, and a worker goroutine parked on target that advances the
// owned replicas to each epoch's time. Two shards never touch the same
// replica or record; the coordinator only mutates shard state between
// epochs, while the workers are parked.
type clusterShard struct {
	c      *Cluster
	id     int
	stride int
	events eventTree

	// Request accounting for the shard's replicas, merged into the
	// cluster's at the end of the run.
	accum    *metrics.RequestAccumulator
	inflight map[int]*metrics.RequestRecord
	free     []*metrics.RequestRecord

	target chan simtime.Time
	wg     *sync.WaitGroup
	err    error
}

// startShards prepares the run's replica stepping and returns the step
// that ends it. A sequential run (Shards <= 1) fills the global event
// tree and ends with nothing to do. A sharded run moves each replica's
// event time and completion callbacks to its shard and starts one
// worker per shard; the returned step stops the workers, restores the
// callbacks, and merges the shard accumulators.
func (c *Cluster) startShards() (stop func()) {
	nShards := c.effShards()
	if nShards <= 1 {
		c.events.init(len(c.replicas))
		for i := range c.replicas {
			c.refreshEvent(i)
		}
		return func() {}
	}
	var wg sync.WaitGroup
	c.shards = make([]*clusterShard, nShards)
	for s := range c.shards {
		sh := &clusterShard{
			c: c, id: s, stride: nShards,
			target: make(chan simtime.Time), wg: &wg,
		}
		sh.events.init((len(c.replicas) - s + nShards - 1) / nShards)
		sh.accum = metrics.NewRequestAccumulator(c.slos)
		sh.inflight = make(map[int]*metrics.RequestRecord)
		c.shards[s] = sh
	}
	for i, rep := range c.replicas {
		sh := c.shards[i%nShards]
		rep.sim.OnRequestComplete = sh.complete
		rep.sim.OnRequestReject = sh.reject
		c.refreshEvent(i)
	}
	for _, sh := range c.shards {
		go sh.run()
	}
	return func() {
		for _, sh := range c.shards {
			close(sh.target)
		}
		for _, rep := range c.replicas {
			rep.sim.OnRequestComplete = c.complete
			rep.sim.OnRequestReject = c.reject
		}
		// Shard accumulators are integer-state, so merging in slot order
		// reproduces the sequential run's aggregate exactly.
		for _, sh := range c.shards {
			c.accum.Merge(sh.accum)
		}
		c.shards = nil
	}
}

// advanceShards steps every shard's replicas to t (exclusive) behind
// an epoch barrier. Shards with no event before t are not woken; a
// single busy shard is advanced inline on the coordinator, skipping
// the channel handoff — the common case between closely spaced
// arrivals.
func (c *Cluster) advanceShards(ctx context.Context, t simtime.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	busy := 0
	var solo *clusterShard
	for _, sh := range c.shards {
		if _, ev := sh.events.min(); ev != simtime.Forever && ev.Before(t) {
			busy++
			solo = sh
		}
	}
	if busy == 0 {
		return nil
	}
	// Shards step replicas without marking them dirty, so a barrier
	// that stepped any leaves every routing view stale.
	c.invalidateViews()
	if busy == 1 {
		solo.advance(t)
	} else {
		wg := c.shards[0].wg
		wg.Add(busy)
		for _, sh := range c.shards {
			if _, ev := sh.events.min(); ev != simtime.Forever && ev.Before(t) {
				sh.target <- t
			}
		}
		wg.Wait()
	}
	for _, sh := range c.shards {
		if sh.err != nil {
			return sh.err
		}
		// Scavenge records the shard retired this epoch back into the
		// coordinator's free pool for reuse by future arrivals.
		if len(sh.free) > 0 {
			c.recFree = append(c.recFree, sh.free...)
			sh.free = sh.free[:0]
		}
	}
	return nil
}

// run is the worker loop: advance owned replicas to each epoch target.
func (sh *clusterShard) run() {
	for t := range sh.target {
		sh.advance(t)
		sh.wg.Done()
	}
}

// advance steps the shard's replicas in local event order until none
// has an event before t.
func (sh *clusterShard) advance(t simtime.Time) {
	for {
		j, ev := sh.events.min()
		if ev == simtime.Forever || !ev.Before(t) {
			return
		}
		i := sh.id + j*sh.stride
		if _, err := sh.c.replicas[i].sim.Step(); err != nil {
			if sh.err == nil {
				sh.err = fmt.Errorf("cluster: shard %d replica %d: %w", sh.id, i, err)
			}
			sh.events.update(j, simtime.Forever)
			continue
		}
		sh.refresh(j, i)
	}
}

// refresh re-reads replica i's next event time into the shard event tree.
// Sharded replicas are always active, so the lifecycle handling in
// Cluster.refreshEvent is unnecessary here.
func (sh *clusterShard) refresh(j, i int) {
	ev, ok := sh.c.replicas[i].sim.NextEventTime()
	if !ok {
		ev = simtime.Forever
	}
	sh.events.update(j, ev)
}

// complete is the sharded completion callback: the unified terminal
// event, minus the control-plane hooks (Obs, scalers, OnRecord) that
// sharding forbids.
func (sh *clusterShard) complete(f sched.Finished) {
	rec := sh.inflight[f.Req.ID]
	if rec == nil {
		return
	}
	rec.FirstToken = f.FirstToken
	rec.Completed = f.Completed
	rec.CachedTokens = f.CachedTokens
	// Disjoint writes: a completion fires on the owning shard, and each
	// replica slot belongs to exactly one shard.
	sh.c.routedTo[rec.Replica]++
	sh.finish(rec)
}

// reject is the sharded unservable-rejection callback.
func (sh *clusterShard) reject(r sched.Rejected) {
	rec := sh.inflight[r.Req.ID]
	if rec == nil {
		return
	}
	rec.Rejected = true
	rec.Replica = -1
	rec.RejectReason = obs.RejectUnservable.String()
	sh.finish(rec)
}

// finish is Cluster.finish against the shard's own accounting.
func (sh *clusterShard) finish(rec *metrics.RequestRecord) {
	sh.accum.Observe(rec)
	sh.c.keep(rec)
	delete(sh.inflight, rec.ID)
	sh.free = append(sh.free, rec)
}
