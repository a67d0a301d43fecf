package miner

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"decloud/internal/auction"
	"decloud/internal/obs"
	"decloud/internal/sealed"
)

const (
	sigChecked = "decloud_miner_bid_sig_checked_total"
	sigSkipped = "decloud_miner_bid_sig_skipped_total"
)

// poolBids seals n requests, one identity each.
func poolBids(t *testing.T, seed string, n int) []*sealed.Bid {
	t.Helper()
	bids := make([]*sealed.Bid, n)
	for i := range bids {
		p := testParticipant(t, fmt.Sprintf("%s-%d", seed, i))
		bid, err := p.SubmitRequest(request(fmt.Sprintf("r-%s-%d", seed, i), 2, float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		bids[i] = bid
	}
	return bids
}

func observedPool() (*Pool, *obs.Registry) {
	reg := obs.NewRegistry()
	m := obs.NewMinerMetrics(reg)
	return NewPool(func() *obs.MinerMetrics { return m }), reg
}

// TestPoolLifecycle walks one pool through everything its API can do.
// After every step the trust set holds exactly pending + in-flight bids,
// and the step cost exactly the signature checks it says.
func TestPoolLifecycle(t *testing.T) {
	p, reg := observedPool()
	b := poolBids(t, "pool", 8)
	forged, forgedDup := cloneBid(b[2]), cloneBid(b[1])
	forged.Signature[5] ^= 1
	forgedDup.Signature[5] ^= 1
	var drained []*sealed.Bid
	inFlight := 0

	admit := func(bid *sealed.Bid, want error) func() {
		return func() {
			t.Helper()
			if err := p.Admit(bid); !errors.Is(err, want) {
				t.Fatalf("Admit = %v, want %v", err, want)
			}
		}
	}
	drain := func(want ...*sealed.Bid) func() {
		return func() {
			t.Helper()
			drained = p.Drain()
			inFlight = len(drained)
			if len(drained) != len(want) {
				t.Fatalf("drained %d bids, want %d", len(drained), len(want))
			}
			for i := range want {
				if drained[i] != want[i] {
					t.Fatalf("drained[%d] is not the bid admitted %d-th", i, i)
				}
			}
		}
	}
	end := func(how func([]*sealed.Bid)) func() {
		return func() { how(drained); inFlight = 0 }
	}
	committed := func(bids []*sealed.Bid) { p.Committed(bids, nil) }

	for _, step := range []struct {
		name      string
		do        func()
		pending   int
		sigChecks int64
	}{
		{"admit", admit(b[0], nil), 1, 1},
		{"admit another", admit(b[1], nil), 2, 1},
		{"duplicate of a pending bid is absorbed unchecked", admit(cloneBid(b[1]), nil), 2, 0},
		{"forged copy of a pending bid is absorbed unchecked, and not trusted", admit(forgedDup, nil), 2, 0},
		{"bad signature", admit(forged, ErrBadBid), 2, 1},
		{"limit reached", func() { p.SetLimit(2) }, 2, 0},
		{"full pool refuses before it checks", admit(b[2], ErrPoolFull), 2, 0},
		{"full pool refuses a bad signature as full", admit(forged, ErrPoolFull), 2, 0},
		{"duplicate into a full pool is still absorbed", admit(cloneBid(b[0]), nil), 2, 0},
		{"drain", drain(b[0], b[1]), 0, 0},
		{"admit while a round is in flight", admit(b[2], nil), 1, 1},
		{"return into a refilled pool: one fits, one is forgotten", end(p.Return), 2, 0},
		{"limit shrinks", func() { p.SetLimit(1) }, 2, 0},
		{"drain again", drain(b[2], b[0]), 0, 0},
		{"return into a shrunken pool", end(p.Return), 1, 0},
		{"limit lifted", func() { p.SetLimit(0) }, 1, 0},
		{"drain once more", drain(b[2]), 0, 0},
		{"discard", end(p.Discard), 0, 0},
		{"a discarded bid may come back, checked again", admit(b[2], nil), 1, 1},
		{"admit two more", func() { admit(b[3], nil)(); admit(b[4], nil)() }, 3, 2},
		{"drain for a block", drain(b[2], b[3], b[4]), 0, 0},
		{"a redelivered in-flight bid is pooled again", admit(cloneBid(b[3]), nil), 1, 1},
		{"admit beside it", admit(b[5], nil), 2, 1},
		{"committed prunes the pending copy", end(committed), 1, 0},
		{"committed bid never re-enters", admit(cloneBid(b[4]), nil), 1, 0},
		{"admit for someone else's block", admit(b[6], nil), 2, 1},
		{"a block decoded from the wire commits by value", func() { p.Committed([]*sealed.Bid{cloneBid(b[6]), cloneBid(b[7])}, nil) }, 1, 0},
		{"a bid first met inside a block is committed too", admit(b[7], nil), 1, 0},
	} {
		before := reg.CounterValue(sigChecked)
		step.do()
		if got := p.Len(); got != step.pending {
			t.Fatalf("%s: %d pending, want %d", step.name, got, step.pending)
		}
		if got := p.Verified().Len(); got != step.pending+inFlight {
			t.Fatalf("%s: trust set holds %d, want %d pending + %d in flight", step.name, got, step.pending, inFlight)
		}
		if got := reg.CounterValue(sigChecked) - before; got != step.sigChecks {
			t.Fatalf("%s: %d signature checks, want %d", step.name, got, step.sigChecks)
		}
	}
	if p.Verified().Has(forgedDup) || !p.Verified().Has(b[5]) {
		t.Fatal("the trust set vouches for a forged copy, or lost the pending bid")
	}
	if got := p.Limit(); got != 0 {
		t.Fatalf("Limit() = %d", got)
	}
}

// TestPoolConcurrentAdmitters: admitters on several goroutines offer the
// same bids — honest copies and forged ones — while a producer drains
// and ends rounds every way it can. Each digest is pending at most once,
// never pending and committed, and the trust set is the pool once no
// round is in flight. Run under -race -cpu 1,2,4 (scripts/ci.sh).
func TestPoolConcurrentAdmitters(t *testing.T) {
	p, _ := observedPool()
	p.SetLimit(24)
	bids := poolBids(t, "conc", 32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range bids {
				c := cloneBid(bids[(i*7+g*5)%len(bids)])
				if (i+g)%5 == 0 {
					c.Signature[0] ^= 1
				}
				switch err := p.Admit(c); {
				case err == nil, errors.Is(err, ErrPoolFull), errors.Is(err, ErrBadBid):
				default:
					t.Errorf("Admit: %v", err)
				}
			}
		}(g)
	}
	onChain := make(map[[32]byte]bool)
	for round := 0; round < 30; round++ {
		drained := p.Drain()
		switch round % 3 {
		case 0:
			p.Return(drained)
		case 1:
			p.Discard(drained)
		default:
			for _, b := range drained {
				if d := b.Digest(); onChain[d] {
					t.Fatalf("bid %x drained after it was committed", d[:4])
				} else {
					onChain[d] = true
				}
			}
			p.Committed(drained, nil)
		}
	}
	wg.Wait()
	if got, want := p.Verified().Len(), p.Len(); got != want {
		t.Fatalf("trust set holds %d bids, pool %d, no round in flight", got, want)
	}
	pending := make(map[[32]byte]bool)
	for _, b := range p.Drain() {
		d := b.Digest()
		if pending[d] || onChain[d] {
			t.Fatalf("bid %x pending twice, or pending and committed", d[:4])
		}
		pending[d] = true
		if !b.VerifySignature() {
			t.Fatalf("bid %x pooled with a bad signature", d[:4])
		}
	}
}

// TestPoolDigestSquattingPinned pins a hole, it does not bless it: the
// door dedupes on the envelope's hash alone, so whoever re-signs a bid
// seen in gossip under their own key and reaches the door first has the
// owner's bid absorbed as a duplicate. The squatter's copy commits, the
// owner's reveal opens it — a reveal belongs to the envelope, not to a
// sender — to an order that names the owner, not the squatter who signed
// the copy, so the owner check rejects it and the order is censored for
// the round. Keying the door by sealed.BidKey is a door change, not a
// format change: ROADMAP item 1, DESIGN.md §11.3.
func TestPoolDigestSquattingPinned(t *testing.T) {
	victim := testParticipant(t, "victim")
	bid, err := victim.SubmitRequest(request("r-victim", 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := sealed.NewIdentityFrom(newDetReader("squatter"))
	if err != nil {
		t.Fatal(err)
	}
	squat := &sealed.Bid{
		Sender:    append([]byte(nil), mallory.Public()...),
		Envelope:  bid.Envelope,
		Signature: mallory.Sign(bid.Envelope),
	}
	p, _ := observedPool()
	if err := p.Admit(squat); err != nil {
		t.Fatalf("the squatter's copy is validly signed: %v", err)
	}
	if err := p.Admit(bid); err != nil {
		t.Fatalf("the owner's bid is absorbed, not refused: %v", err)
	}
	pooled := p.Drain()
	if len(pooled) != 1 || pooled[0].SenderID() == victim.ID() {
		t.Fatalf("pool holds %d bids; today it holds the squatter's copy alone", len(pooled))
	}
	reveals := revealsFor(victim, pooled)
	if len(reveals) != 1 || reveals[0].Verify(pooled[0]) != nil {
		t.Fatal("the owner's reveal is valid for the squatter's copy: same envelope, same committed key")
	}
	dec := DecryptOrders(pooled, reveals)
	if dec.Rejected != 1 || len(dec.Requests) != 0 {
		t.Fatalf("the squatted order must not trade under either key: %+v", dec)
	}
}

// TestNetworkCommitsAResubmittedBidOnce: the in-process network shares
// the door's dedupe and its committed guard — a bid submitted twice is
// committed once, and a replay of a committed bid never reaches a block.
func TestNetworkCommitsAResubmittedBidOnce(t *testing.T) {
	net := NewNetwork(2, testDifficulty, auction.DefaultConfig())
	parts, bids := sealedMarket(t, "twice")
	submitAll(t, net, bids)
	submitAll(t, net, []*sealed.Bid{bids[0], cloneBid(bids[1])})
	if got := net.MempoolSize(); got != len(bids) {
		t.Fatalf("%d bids pooled after a resubmission, want %d", got, len(bids))
	}
	res, err := net.RunRound(context.Background(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Block.Bids) != len(bids) || len(res.Outcome.Matches) == 0 {
		t.Fatalf("block carries %d bids and %d matches, want %d bids trading", len(res.Block.Bids), len(res.Outcome.Matches), len(bids))
	}
	submitAll(t, net, []*sealed.Bid{cloneBid(bids[2])})
	if got := net.MempoolSize(); got != 0 {
		t.Fatalf("a replayed committed bid was pooled (%d pending)", got)
	}
	if _, err := net.RunRound(context.Background(), parts); !errors.Is(err, ErrEmptyMempool) {
		t.Fatalf("round over a replayed bid: %v, want ErrEmptyMempool", err)
	}
}

// eachNonTestFile parses every non-test Go file of the repository and
// hands it over with its slash-separated path from the repository root.
func eachNonTestFile(t *testing.T, visit func(rel string, fset *token.FileSet, file *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(rel, fset, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOnlyThePoolWritesTheTrustSet guards the boundary the Pool exists
// for: outside pool.go (and the type's own file) no non-test code adds to
// or forgets from a sealed.Verified, and none but the miner that reads
// it names the type at all.
func TestOnlyThePoolWritesTheTrustSet(t *testing.T) {
	mayName := map[string]bool{
		"internal/sealed/sealed.go": true, // the type
		"internal/miner/pool.go":    true, // its one writer
		"internal/miner/miner.go":   true, // its reader: Miner.Admitted
	}
	holder := regexp.MustCompile(`(?i)verified|admitted`)
	eachNonTestFile(t, func(rel string, fset *token.FileSet, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sealed" && n.Sel.Name == "Verified" && !mayName[rel] {
					t.Errorf("%s names sealed.Verified: a node's trust set lives in its miner.Pool", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Add" && sel.Sel.Name != "Forget") {
					return true
				}
				if recv := types.ExprString(sel.X); holder.MatchString(recv) && rel != "internal/miner/pool.go" {
					t.Errorf("%s: %s.%s outside miner.Pool", fset.Position(n.Pos()), recv, sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestOnlyTheMinerMovesItsBook guards book == chain: a host lets a block
// in through Miner.Produce or Miner.Accept and never syncs, previews or
// applies a miner's book by hand. No non-test file of the hosts mentions
// SyncBook, and Apply / Preview on a miner's book (reached as x.Book or
// x.Book()) are called from internal/miner alone.
func TestOnlyTheMinerMovesItsBook(t *testing.T) {
	hosts := regexp.MustCompile(`^(internal/(p2p|sim|devnet)|cmd)/`)
	minersBook := regexp.MustCompile(`\.Book(\(\))?$`)
	eachNonTestFile(t, func(rel string, fset *token.FileSet, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "SyncBook" && hosts.MatchString(rel) {
					t.Errorf("%s mentions SyncBook: blocks enter a node through Miner.Produce / Miner.Accept", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Apply" && sel.Sel.Name != "Preview") {
					return true
				}
				if recv := types.ExprString(sel.X); minersBook.MatchString(recv) && !strings.HasPrefix(rel, "internal/miner/") {
					t.Errorf("%s: %s.%s outside internal/miner", fset.Position(n.Pos()), recv, sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestOneFunctionReachesEd25519 is what lets a counter stand for a cost:
// the only signature the protocol checks is a bid's. ed25519 verification
// is called from Bid.VerifySignature alone, and Bid.VerifySignature from
// the two places that count it in decloud_miner_bid_sig_checked_total —
// the door (Pool.Admit) and the block executor (openBid); the benchmark,
// which measures the call from outside, is not a node. So that counter is
// every ed25519 verification a node performs; a reveal costs hashes.
func TestOneFunctionReachesEd25519(t *testing.T) {
	callers := map[string][]string{} // callee → "file:func" of every call site
	eachNonTestFile(t, func(rel string, _ *token.FileSet, file *ast.File) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := rel + ":" + fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, _ := fun.X.(*ast.Ident)
				switch {
				case pkg != nil && pkg.Name == "ed25519" && strings.HasPrefix(fun.Sel.Name, "Verify"):
					callers["ed25519.Verify"] = append(callers["ed25519.Verify"], site)
				case fun.Sel.Name == "VerifySignature" && !strings.HasPrefix(rel, "benchmark/"):
					callers["VerifySignature"] = append(callers["VerifySignature"], site)
				}
				return true
			})
		}
	})
	for callee, want := range map[string][]string{
		"ed25519.Verify":  {"internal/sealed/sealed.go:VerifySignature"},
		"VerifySignature": {"internal/miner/miner.go:openBid", "internal/miner/pool.go:Admit"},
	} {
		got := append([]string(nil), callers[callee]...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s is called from %v, want exactly %v", callee, got, want)
		}
	}
}
