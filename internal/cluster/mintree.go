package cluster

import "math"

// minTree is a winner (tournament) tree over int64 keys, one leaf per
// index, whose root is the least key with ties toward the lowest index.
// It orders the event queue (replica next-event times; simtime.Forever
// is math.MaxInt64) and each least-loaded routing view (queued tokens).
// Every node holds a copy of the leaf that wins its subtree, and a left
// subtree's indices all precede its right sibling's, so a match goes
// right only on a strictly lower key. Padding leaves past the last index
// hold math.MaxInt64 and lose every tie to real indices.
type minTree struct {
	node   []minNode // node[1] is the root, node[leaves+i] is index i's leaf
	leaves int       // a power of two
}

type minNode struct {
	key int64
	i   int32
}

// build resets the tree to n indices, index i keyed key(i).
func (t *minTree) build(n int, key func(i int) int64) {
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	if cap(t.node) < 2*leaves {
		t.node = make([]minNode, 2*leaves)
	}
	t.node, t.leaves = t.node[:2*leaves], leaves
	for i := range leaves {
		k := int64(math.MaxInt64)
		if i < n {
			k = key(i)
		}
		t.node[leaves+i] = minNode{key: k, i: int32(i)}
	}
	for p := leaves - 1; p >= 1; p-- {
		t.play(p)
	}
}

// grow widens the tree to at least n indices, keeping the keys set; new
// indices start at math.MaxInt64.
func (t *minTree) grow(n int) {
	if n <= t.leaves {
		return
	}
	old := *t
	*t = minTree{}
	t.build(n, func(i int) int64 {
		if i < old.leaves {
			return old.node[old.leaves+i].key
		}
		return math.MaxInt64
	})
}

// play replays the match at internal node p from its children.
func (t *minTree) play(p int) {
	l, r := t.node[2*p], t.node[2*p+1]
	if r.key < l.key {
		l = r
	}
	t.node[p] = l
}

// min returns the winning index and its key.
func (t *minTree) min() (int, int64) {
	root := t.node[1]
	return int(root.i), root.key
}

// set changes index i's key. A lower key can only win matches: it
// climbs while i beats the stored winner (a stored copy of i holds its
// higher old key, so i beats it too) and stops at the first match
// another index still wins. A higher key can only lose matches i won:
// it replays them and stops at the first match i did not win, whose
// winner is unchanged. Either way the tree ends equal to a fresh build.
// The root winner won every match on its path, so its replay skips the
// check; in the event queue that is the replica just stepped, almost
// every update.
func (t *minTree) set(i int, key int64) {
	p := t.leaves + i
	old := t.node[p].key
	if key == old {
		return
	}
	me := minNode{key: key, i: int32(i)}
	t.node[p] = me
	if key < old {
		for p >>= 1; p >= 1; p >>= 1 {
			w := t.node[p]
			if w.key < key || w.key == key && w.i < me.i {
				return
			}
			t.node[p] = me
		}
		return
	}
	root := t.node[1].i == me.i
	for p >>= 1; p >= 1 && (root || t.node[p].i == me.i); p >>= 1 {
		t.play(p)
	}
}
