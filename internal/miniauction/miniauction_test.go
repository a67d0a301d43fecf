package miniauction

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCompatible(t *testing.T) {
	tests := []struct {
		name string
		a, b Interval
		want bool
	}{
		{"overlapping", Interval{Lo: 1, Hi: 5}, Interval{Lo: 3, Hi: 8}, true},
		{"nested", Interval{Lo: 1, Hi: 10}, Interval{Lo: 3, Hi: 4}, true},
		{"disjoint", Interval{Lo: 1, Hi: 2}, Interval{Lo: 3, Hi: 4}, false},
		{"touching endpoints", Interval{Lo: 1, Hi: 3}, Interval{Lo: 3, Hi: 4}, false},
		{"identical", Interval{Lo: 2, Hi: 6}, Interval{Lo: 2, Hi: 6}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Compatible(tt.a, tt.b); got != tt.want {
				t.Fatalf("Compatible = %v, want %v", got, tt.want)
			}
			if got := Compatible(tt.b, tt.a); got != tt.want {
				t.Fatalf("Compatible not symmetric")
			}
		})
	}
}

func TestFormEmpty(t *testing.T) {
	if got := Form(nil); got != nil {
		t.Fatalf("Form(nil) = %v", got)
	}
}

func TestFormSingleton(t *testing.T) {
	got := Form([]Interval{{ID: 7, Lo: 1, Hi: 2, Weight: 5}})
	if len(got) != 1 || len(got[0].Clusters) != 1 || got[0].Clusters[0] != 7 {
		t.Fatalf("Form = %+v", got)
	}
	if got[0].Weight != 5 {
		t.Fatalf("Weight = %v, want 5", got[0].Weight)
	}
}

func TestFormCompatibleClustersShareAuction(t *testing.T) {
	// Three mutually overlapping intervals: one root, the others chain
	// under it — a single path (Fig. 4's three-cluster mini-auction).
	ivs := []Interval{
		{ID: 0, Lo: 1, Hi: 10, Weight: 10},
		{ID: 1, Lo: 2, Hi: 9, Weight: 5},
		{ID: 2, Lo: 3, Hi: 8, Weight: 3},
	}
	auctions := Form(ivs)
	if len(auctions) != 1 {
		t.Fatalf("want one mini-auction, got %+v", auctions)
	}
	if len(auctions[0].Clusters) != 3 {
		t.Fatalf("auction should contain all three clusters: %+v", auctions[0])
	}
	if auctions[0].Weight != 18 {
		t.Fatalf("Weight = %v, want 18", auctions[0].Weight)
	}
}

func TestFormDisjointClustersSeparateAuctions(t *testing.T) {
	ivs := []Interval{
		{ID: 0, Lo: 1, Hi: 2, Weight: 1},
		{ID: 1, Lo: 5, Hi: 6, Weight: 2},
		{ID: 2, Lo: 10, Hi: 11, Weight: 3},
	}
	auctions := Form(ivs)
	if len(auctions) != 3 {
		t.Fatalf("disjoint clusters must stay separate: %+v", auctions)
	}
	// Sorted by weight descending.
	if auctions[0].Weight < auctions[1].Weight || auctions[1].Weight < auctions[2].Weight {
		t.Fatalf("not sorted by weight: %+v", auctions)
	}
}

func TestFormRootsMaximizeWeight(t *testing.T) {
	// A heavy wide interval overlaps two light narrow ones that are
	// disjoint from each other. Roots must pick the two narrow ones if
	// their combined weight wins, else the wide one.
	wide := Interval{ID: 0, Lo: 0, Hi: 10, Weight: 5}
	left := Interval{ID: 1, Lo: 0, Hi: 4, Weight: 3}
	right := Interval{ID: 2, Lo: 6, Hi: 10, Weight: 3}
	roots := selectRoots([]Interval{wide, left, right})
	if len(roots) != 2 {
		t.Fatalf("roots = %+v, want the two narrow intervals", roots)
	}
	for _, r := range roots {
		if r.ID == 0 {
			t.Fatalf("wide interval should lose: %+v", roots)
		}
	}
	// Now make the wide interval dominant.
	wide.Weight = 10
	roots = selectRoots([]Interval{wide, left, right})
	if len(roots) != 1 || roots[0].ID != 0 {
		t.Fatalf("heavy wide interval should win: %+v", roots)
	}
}

func TestFormEveryClusterAppears(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rnd.Intn(20)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rnd.Float64() * 10
			ivs[i] = Interval{ID: i, Lo: lo, Hi: lo + 0.1 + rnd.Float64()*5, Weight: rnd.Float64() * 10}
		}
		auctions := Form(ivs)
		seen := make(map[int]bool)
		for _, a := range auctions {
			for _, id := range a.Clusters {
				seen[id] = true
			}
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				t.Fatalf("cluster %d missing from all auctions (n=%d)", i, n)
			}
		}
	}
}

func TestFormPathsArePairwiseChainCompatible(t *testing.T) {
	// Along any root-to-leaf path, each child was attached under a node it
	// is compatible with; verify parent-child compatibility holds.
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rnd.Intn(15)
		ivs := make([]Interval, n)
		byID := make(map[int]Interval, n)
		for i := range ivs {
			lo := rnd.Float64() * 6
			ivs[i] = Interval{ID: i, Lo: lo, Hi: lo + 0.5 + rnd.Float64()*4, Weight: 1 + rnd.Float64()*9}
			byID[i] = ivs[i]
		}
		for _, a := range Form(ivs) {
			for i := 1; i < len(a.Clusters); i++ {
				parent := byID[a.Clusters[i-1]]
				child := byID[a.Clusters[i]]
				if !Compatible(parent, child) {
					t.Fatalf("path %v has incompatible adjacent clusters %v and %v",
						a.Clusters, parent, child)
				}
			}
		}
	}
}

func TestFormDeterministic(t *testing.T) {
	ivs := []Interval{
		{ID: 0, Lo: 1, Hi: 4, Weight: 2},
		{ID: 1, Lo: 2, Hi: 5, Weight: 2},
		{ID: 2, Lo: 3, Hi: 6, Weight: 2},
		{ID: 3, Lo: 7, Hi: 9, Weight: 1},
	}
	a := Form(ivs)
	// Permute input order.
	perm := []Interval{ivs[2], ivs[0], ivs[3], ivs[1]}
	b := Form(perm)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count: %+v vs %+v", a, b)
	}
	for i := range a {
		if a[i].Weight != b[i].Weight || len(a[i].Clusters) != len(b[i].Clusters) {
			t.Fatalf("nondeterministic shapes: %+v vs %+v", a, b)
		}
		for j := range a[i].Clusters {
			if a[i].Clusters[j] != b[i].Clusters[j] {
				t.Fatalf("nondeterministic paths: %+v vs %+v", a, b)
			}
		}
	}
}

// Property: selectRoots always returns pairwise non-overlapping intervals
// and never a worse total weight than the best singleton.
func TestSelectRootsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := int(nRaw%12) + 1
		ivs := make([]Interval, n)
		best := 0.0
		for i := range ivs {
			lo := rnd.Float64() * 8
			ivs[i] = Interval{ID: i, Lo: lo, Hi: lo + 0.1 + rnd.Float64()*4, Weight: rnd.Float64() * 10}
			if ivs[i].Weight > best {
				best = ivs[i].Weight
			}
		}
		roots := selectRoots(ivs)
		var total float64
		for i, a := range roots {
			total += a.Weight
			for _, b := range roots[i+1:] {
				if Compatible(a, b) {
					return false // overlapping roots
				}
			}
		}
		return total >= best-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPathsShareCommonPriceRange: along every root-to-leaf path (one
// mini-auction) the intersection of member intervals must be non-empty —
// a single clearing price exists that every member cluster can live with.
func TestPathsShareCommonPriceRange(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rnd.Intn(25)
		ivs := make([]Interval, n)
		byID := make(map[int]Interval, n)
		for i := range ivs {
			lo := rnd.Float64() * 10
			ivs[i] = Interval{ID: i, Lo: lo, Hi: lo + 0.05 + rnd.Float64()*6, Weight: rnd.Float64() * 5}
			byID[i] = ivs[i]
		}
		for _, a := range Form(ivs) {
			lo := 0.0
			hi := 1e18
			for _, id := range a.Clusters {
				iv := byID[id]
				if iv.Lo > lo {
					lo = iv.Lo
				}
				if iv.Hi < hi {
					hi = iv.Hi
				}
			}
			if hi <= lo {
				t.Fatalf("trial %d: path %v has empty common range [%v, %v]",
					trial, a.Clusters, lo, hi)
			}
		}
	}
}

// TestSpineAttachMatchesTheWalk holds tree.attach, which binary-searches
// the spine, to Algorithm 3's plain walk from the root: the same tree,
// node for node, over random intervals — nested chains, branches and
// ties on the range ends.
func TestSpineAttachMatchesTheWalk(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		root := Interval{ID: 0, Lo: 0, Hi: 100}
		tr := &tree{spine: []*node{{iv: root, lo: root.Lo, hi: root.Hi}}}
		walk := &node{iv: root, lo: root.Lo, hi: root.Hi}
		for id := 1; id < 2+rnd.Intn(60); id++ {
			lo := float64(rnd.Intn(50))
			iv := Interval{ID: id, Lo: lo, Hi: lo + 1 + float64(rnd.Intn(60))}
			if !overlaps(iv, root.Lo, root.Hi) {
				continue
			}
			tr.attach(iv)
			walkAttach(walk, iv)
		}
		if got, want := rootToLeafPaths(tr.spine[0], nil), rootToLeafPaths(walk, nil); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("trial %d: spine paths %v, walk paths %v", trial, got, want)
		}
	}
}

// walkAttach is attach as Algorithm 3 states it: from the root, descend
// into the first child whose range admits iv; hang iv below the node
// where none does.
func walkAttach(cur *node, iv Interval) {
	for {
		i := slices.IndexFunc(cur.children, func(ch *node) bool { return overlaps(iv, ch.lo, ch.hi) })
		if i < 0 {
			cur.children = append(cur.children, &node{iv: iv, lo: max(cur.lo, iv.Lo), hi: min(cur.hi, iv.Hi)})
			return
		}
		cur = cur.children[i]
	}
}
