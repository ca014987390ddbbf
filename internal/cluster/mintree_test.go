package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// TestMinTreeMatchesScan drives the min tree through random operations
// over few distinct keys, so ties are common, and many math.MaxInt64
// (idle) keys: rebuilds, grows that keep the keys set, unchanged
// writes, rises of the root winner (a stepped replica), idle indices
// falling to a finite key, and arbitrary rises and falls. After every
// operation min must return the linear scan's pick — the least key,
// ties toward the lowest index — and every node must equal a tree built
// fresh from the same keys, so an early exit that left a stale match
// anywhere fails.
func TestMinTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tree, fresh minTree
	var keys []int64
	for trial := 0; trial < 300; trial++ {
		distinct := 1 + rng.Intn(6)
		draw := func() int64 {
			if rng.Intn(3) == 0 {
				return math.MaxInt64
			}
			return int64(rng.Intn(distinct))
		}
		rebuild := func() {
			keys = keys[:0]
			for range 1 + rng.Intn(40) {
				keys = append(keys, draw())
			}
			tree.build(len(keys), func(i int) int64 { return keys[i] })
		}
		rebuild()
		for op := 0; op < 400; op++ {
			kind, i := "set", rng.Intn(len(keys))
			switch rng.Intn(8) {
			case 0:
				kind = "rebuild"
				rebuild()
			case 1:
				kind = "grow"
				keys = append(keys, math.MaxInt64)
				tree.grow(len(keys))
			case 2:
				kind = "unchanged set"
				tree.set(i, keys[i])
			case 3:
				kind = "root rise"
				i, _ = tree.min()
				if keys[i] != math.MaxInt64 {
					keys[i] += 1 + int64(rng.Intn(distinct))
				}
				tree.set(i, keys[i])
			case 4:
				for k := range keys {
					if j := (i + k) % len(keys); keys[j] == math.MaxInt64 {
						kind, i = "idle to busy", j
						break
					}
				}
				keys[i] = int64(rng.Intn(distinct))
				tree.set(i, keys[i])
			default:
				keys[i] = draw()
				tree.set(i, keys[i])
			}
			want := 0
			for k, key := range keys {
				if key < keys[want] {
					want = k
				}
			}
			if got, key := tree.min(); got != want || key != keys[want] {
				t.Fatalf("trial %d, op %d (%s) over %d indices: tree min (%d, %d), scan min (%d, %d)",
					trial, op, kind, len(keys), got, key, want, keys[want])
			}
			fresh.build(len(keys), func(i int) int64 { return keys[i] })
			if len(tree.node) != len(fresh.node) {
				t.Fatalf("trial %d, op %d (%s): %d nodes, a fresh build has %d", trial, op, kind, len(tree.node), len(fresh.node))
			}
			for p := 1; p < len(fresh.node); p++ {
				if tree.node[p] != fresh.node[p] {
					t.Fatalf("trial %d, op %d (%s) of index %d: node %d is %+v, a fresh build has %+v",
						trial, op, kind, i, p, tree.node[p], fresh.node[p])
				}
			}
		}
	}
}
