// Package miniauction implements Algorithm 3 of the DeCloud paper:
// grouping price-compatible clusters into mini-auctions so that a single
// trade reduction can serve many clusters at once, minimizing the welfare
// lost to the DSIC guarantee.
//
// Each cluster is abstracted as a price interval [Lo, Hi] = [ĉ_{z'}, v̂_z]
// with a welfare weight. The algorithm:
//
//  1. chooses roots — a maximum-weight set of non-overlapping intervals
//     (weighted interval scheduling via dynamic programming, the
//     "minimal non-overlapping ranges" of the paper);
//  2. attaches every remaining cluster to the deepest compatible node of
//     a compatible root's tree (two clusters are compatible when each
//     side's marginal valuation exceeds the other's marginal cost:
//     Hi_a > Lo_b and Hi_b > Lo_a, i.e. their intervals overlap);
//  3. yields each root-to-leaf path as one mini-auction.
package miniauction

import (
	"cmp"
	"slices"
	"sort"
)

// Interval is a cluster's price range and welfare weight.
type Interval struct {
	// ID identifies the cluster to the caller (e.g. an index).
	ID int
	// Lo is ĉ_{z'}: the marginal (highest) allocated normalized cost.
	Lo float64
	// Hi is v̂_z: the marginal (lowest) allocated normalized valuation.
	Hi float64
	// Weight is the cluster's estimated welfare; roots maximize total
	// weight, and mini-auctions are executed in descending weight order.
	Weight float64
}

// Compatible reports the paper's price compatibility between clusters a
// and b: v̂_{z,a} > ĉ_{z',b} and v̂_{z,b} > ĉ_{z',a}.
func Compatible(a, b Interval) bool {
	return a.Hi > b.Lo && b.Hi > a.Lo
}

// Auction is one mini-auction: the cluster IDs along a root-to-leaf path.
type Auction struct {
	// Clusters lists member cluster IDs, root first.
	Clusters []int
	// Weight is the summed welfare weight of the member clusters.
	Weight float64
}

type node struct {
	iv       Interval
	children []*node
	// lo/hi is the running intersection of intervals along the path from
	// the root to this node. A mini-auction clears at ONE price common to
	// all member clusters, so every cluster on a path must share a
	// non-empty price range — attaching by pairwise compatibility alone
	// would chain together clusters whose common range is empty and force
	// the pooled price below some members' costs.
	lo, hi float64
}

// Form groups the given cluster intervals into mini-auctions. Every input
// interval appears in at least one auction (an isolated cluster becomes a
// singleton auction). The result is ordered by descending weight with
// deterministic tie-breaking, ready for Algorithm 1's execution loop.
func Form(intervals []Interval) []Auction {
	if len(intervals) == 0 {
		return nil
	}
	roots := selectRoots(intervals)
	isRoot := make(map[int]bool, len(roots))
	trees := make([]*tree, 0, len(roots))
	for _, r := range roots {
		trees = append(trees, &tree{spine: []*node{{iv: r, lo: r.Lo, hi: r.Hi}}})
		isRoot[r.ID] = true
	}

	// Attach non-root clusters to the first compatible tree, walking down
	// to the deepest compatible node (Algorithm 3's preorder insertion).
	// Heavier clusters attach first so they end up closer to the root.
	rest := make([]Interval, 0, len(intervals))
	for _, iv := range intervals {
		if !isRoot[iv.ID] {
			rest = append(rest, iv)
		}
	}
	// (Weight desc, ID) is a total order — cluster IDs are unique.
	slices.SortFunc(rest, func(a, b Interval) int { return cmp.Or(cmp.Compare(b.Weight, a.Weight), a.ID-b.ID) })
	for _, iv := range rest {
		attached := false
		for _, t := range trees {
			if overlaps(iv, t.spine[0].lo, t.spine[0].hi) {
				t.attach(iv)
				attached = true
				break
			}
		}
		if !attached {
			trees = append(trees, &tree{spine: []*node{{iv: iv, lo: iv.Lo, hi: iv.Hi}}})
		}
	}

	weightOf := make(map[int]float64, len(intervals))
	for _, iv := range intervals {
		weightOf[iv.ID] = iv.Weight
	}
	var auctions []Auction
	for _, t := range trees {
		for _, path := range rootToLeafPaths(t.spine[0], nil) {
			var w float64
			for _, id := range path {
				w += weightOf[id]
			}
			auctions = append(auctions, Auction{Clusters: path, Weight: w})
		}
	}
	// Root-to-leaf paths are distinct ID sequences, so (Weight desc,
	// lexicographic path) is a total order.
	slices.SortFunc(auctions, func(a, b Auction) int {
		return cmp.Or(cmp.Compare(b.Weight, a.Weight), slices.Compare(a.Clusters, b.Clusters))
	})
	return auctions
}

// overlaps reports whether iv shares a non-empty open range with [lo, hi].
func overlaps(iv Interval, lo, hi float64) bool {
	return iv.Hi > lo && hi > iv.Lo
}

// tree is a root and its spine: the root, then each node's first child.
type tree struct {
	spine []*node
}

// attach inserts iv below the deepest node whose path intersection still
// admits it, narrowing the common price range as it descends into the
// first child that admits it; the root must admit it. A child's range
// nests in its parent's, so along the spine the ranges admitting iv are
// a prefix: the descent follows the spine to its last node there, found
// by binary search, and walks on from it.
func (t *tree) attach(iv Interval) {
	end := len(t.spine) - 1
	cur := t.spine[sort.Search(end+1, func(i int) bool { return !overlaps(iv, t.spine[i].lo, t.spine[i].hi) })-1]
	for {
		var next *node
		for _, ch := range cur.children {
			if overlaps(iv, ch.lo, ch.hi) {
				next = ch
				break
			}
		}
		if next == nil {
			child := &node{
				iv: iv,
				lo: max(cur.lo, iv.Lo),
				hi: min(cur.hi, iv.Hi),
			}
			if cur.children = append(cur.children, child); cur == t.spine[end] {
				t.spine = append(t.spine, child)
			}
			return
		}
		cur = next
	}
}

// rootToLeafPaths enumerates every root-to-leaf ID path.
func rootToLeafPaths(n *node, prefix []int) [][]int {
	prefix = append(prefix, n.iv.ID)
	if len(n.children) == 0 {
		return [][]int{append([]int(nil), prefix...)}
	}
	var out [][]int
	for _, ch := range n.children {
		out = append(out, rootToLeafPaths(ch, prefix)...)
	}
	return out
}

// selectRoots solves weighted interval scheduling over the cluster
// intervals: a maximum-weight subset of pairwise non-overlapping
// intervals, in O(n log n) via dynamic programming.
func selectRoots(intervals []Interval) []Interval {
	ivs := append([]Interval(nil), intervals...)
	// (Hi, Lo, ID) is a total order — cluster IDs are unique.
	slices.SortFunc(ivs, func(a, b Interval) int { return cmp.Or(cmp.Compare(a.Hi, b.Hi), cmp.Compare(a.Lo, b.Lo), a.ID-b.ID) })
	n := len(ivs)
	// p[i] is the rightmost interval j < i whose Hi ≤ Lo_i. Touching
	// endpoints do not overlap under the strict Compatible predicate.
	p := make([]int, n)
	for i := 0; i < n; i++ {
		p[i] = -1
		lo, hi := 0, i-1
		for lo <= hi {
			mid := (lo + hi) / 2
			if ivs[mid].Hi <= ivs[i].Lo {
				p[i] = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
	}
	// dp[i]: best weight using the first i intervals.
	dp := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		with := ivs[i-1].Weight
		if p[i-1] >= 0 {
			with += dp[p[i-1]+1]
		}
		dp[i] = max(dp[i-1], with)
	}
	var roots []Interval
	for i := n; i > 0; {
		if dp[i] == dp[i-1] {
			i--
			continue
		}
		roots = append(roots, ivs[i-1])
		i = p[i-1] + 1
	}
	for l, r := 0, len(roots)-1; l < r; l, r = l+1, r-1 {
		roots[l], roots[r] = roots[r], roots[l]
	}
	return roots
}
