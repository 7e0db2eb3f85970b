// Package btree implements an in-memory B+Tree used by the row engine's
// unclustered secondary indexes and index-only plans (paper Section 4,
// "index-only plans ... an additional unclustered B+Tree index is added on
// every column of every table").
//
// Leaf entries carry the indexed key, the record id of the base tuple, and
// an auxiliary payload used for the paper's composite-key optimization
// ("storing the primary key of each dimension table as a secondary sort
// attribute on the indices over the attributes of that dimension table"),
// which lets a plan read the join key straight out of the index without
// visiting the base relation.
//
// The tree is totally ordered by the composite (Key, RID), including the
// interior separators, so duplicate keys that span node splits are still
// found by range scans.
package btree

import (
	"cmp"
	"math"
)

// degree is the maximum number of children per interior node.
const degree = 64

// Entry is one leaf slot: key, record id, and auxiliary payload.
type Entry[K cmp.Ordered] struct {
	Key K
	RID int32
	Aux int32
}

// less orders entries by (Key, RID).
func less[K cmp.Ordered](aK K, aR int32, bK K, bR int32) bool {
	if aK != bK {
		return aK < bK
	}
	return aR < bR
}

type leaf[K cmp.Ordered] struct {
	entries []Entry[K]
	next    *leaf[K]
}

type interior[K cmp.Ordered] struct {
	// Separator i is (keys[i], rids[i]) — the smallest composite
	// reachable under children[i+1].
	keys     []K
	rids     []int32
	children []node[K]
}

type node[K cmp.Ordered] interface{ isNode() }

func (*leaf[K]) isNode()     {}
func (*interior[K]) isNode() {}

// Tree is a B+Tree keyed by K. The zero value is not usable; call Build.
type Tree[K cmp.Ordered] struct {
	root      node[K]
	firstLeaf *leaf[K]
	n         int
	keyBytes  int
}

// Build bulk-loads a tree from entries sorted ascending by (Key, RID); it is
// how every index is made. keyBytes is the on-disk size of one key, used for
// I/O accounting (e.g. 4 for int32 keys, avg length for strings).
func Build[K cmp.Ordered](entries []Entry[K], keyBytes int) *Tree[K] {
	t := &Tree[K]{keyBytes: keyBytes, n: len(entries)}
	if len(entries) == 0 {
		lf := &leaf[K]{}
		t.root, t.firstLeaf = lf, lf
		return t
	}
	const leafCap = degree - 1
	var leaves []*leaf[K]
	for off := 0; off < len(entries); off += leafCap {
		end := off + leafCap
		if end > len(entries) {
			end = len(entries)
		}
		leaves = append(leaves, &leaf[K]{entries: append([]Entry[K](nil), entries[off:end]...)})
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	t.firstLeaf = leaves[0]
	level := make([]node[K], len(leaves))
	firstK := make([]K, len(leaves))
	firstR := make([]int32, len(leaves))
	for i, lf := range leaves {
		level[i] = lf
		firstK[i] = lf.entries[0].Key
		firstR[i] = lf.entries[0].RID
	}
	for len(level) > 1 {
		var nextLevel []node[K]
		var nextK []K
		var nextR []int32
		for off := 0; off < len(level); off += degree {
			end := off + degree
			if end > len(level) {
				end = len(level)
			}
			in := &interior[K]{
				children: append([]node[K](nil), level[off:end]...),
				keys:     append([]K(nil), firstK[off+1:end]...),
				rids:     append([]int32(nil), firstR[off+1:end]...),
			}
			nextLevel = append(nextLevel, in)
			nextK = append(nextK, firstK[off])
			nextR = append(nextR, firstR[off])
		}
		level, firstK, firstR = nextLevel, nextK, nextR
	}
	t.root = level[0]
	return t
}

// childFor returns the index of the child whose subtree should contain the
// composite (key, rid): the first separator > (key, rid).
func (n *interior[K]) childFor(key K, rid int32) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		m := (lo + hi) / 2
		if less(key, rid, n.keys[m], n.rids[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// lowerBoundEntry finds the first slot whose (Key,RID) >= (key,rid).
func lowerBoundEntry[K cmp.Ordered](entries []Entry[K], key K, rid int32) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		m := (lo + hi) / 2
		if less(entries[m].Key, entries[m].RID, key, rid) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// seekLeaf returns the leaf and slot of the first entry with
// (Key, RID) >= (key, rid).
func (t *Tree[K]) seekLeaf(key K, rid int32) (*leaf[K], int) {
	nd := t.root
	for {
		switch n := nd.(type) {
		case *interior[K]:
			nd = n.children[n.childFor(key, rid)]
		case *leaf[K]:
			i := lowerBoundEntry(n.entries, key, rid)
			if i == len(n.entries) && n.next != nil {
				return n.next, 0
			}
			return n, i
		}
	}
}

// Range visits entries with lo <= Key <= hi in (Key, RID) order; fn returns
// false to stop early. It also returns the number of leaf hops performed,
// which the caller converts to seeks.
func (t *Tree[K]) Range(lo, hi K, fn func(Entry[K]) bool) (leafHops int64) {
	lf, i := t.seekLeaf(lo, math.MinInt32)
	for lf != nil {
		leafHops++
		for ; i < len(lf.entries); i++ {
			e := lf.entries[i]
			if e.Key > hi {
				return leafHops
			}
			if !fn(e) {
				return leafHops
			}
		}
		lf, i = lf.next, 0
	}
	return leafHops
}

// Scan visits every entry in (Key, RID) order (a "full index scan").
func (t *Tree[K]) Scan(fn func(Entry[K]) bool) {
	for lf := t.firstLeaf; lf != nil; lf = lf.next {
		for _, e := range lf.entries {
			if !fn(e) {
				return
			}
		}
	}
}

// EntryBytes is the on-disk size of one leaf entry (key + rid + aux).
func (t *Tree[K]) EntryBytes() int64 { return int64(t.keyBytes) + 8 }

// SizeBytes approximates the on-disk size of the leaf level, charged when a
// plan scans the whole index.
func (t *Tree[K]) SizeBytes() int64 { return int64(t.n) * t.EntryBytes() }
