package devnet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"decloud/internal/ledger"
	"decloud/internal/miner"
)

// Teardown auditing. Both checks work purely from files the node
// processes left behind — chain replicas saved by miners, JSONL order
// reports appended by participants — so they hold even when processes
// were SIGKILLed mid-flight.

// ConvergenceResult describes an agreeing set of chain replicas.
type ConvergenceResult struct {
	// Height is the agreed chain length (number of blocks).
	Height int `json:"height"`
	// HeadHash is hex SHA-256 of the serialized replica — byte identity,
	// stronger than head-block identity.
	HeadHash string `json:"head_hash"`
	// Replicas is how many chain files agreed.
	Replicas int `json:"replicas"`
}

// CheckConvergence verifies that every chain file exists, is
// byte-identical to the others, revalidates block by block, and has at
// least minHeight blocks.
func CheckConvergence(chainFiles []string, minHeight int) (*ConvergenceResult, error) {
	if len(chainFiles) == 0 {
		return nil, fmt.Errorf("devnet: no chain files")
	}
	var first []byte
	for i, path := range chainFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("devnet: replica %s: %w", path, err)
		}
		if i == 0 {
			first = data
			continue
		}
		if !bytes.Equal(first, data) {
			return nil, fmt.Errorf("devnet: replica %s diverges from %s (%d vs %d bytes)",
				path, chainFiles[0], len(data), len(first))
		}
	}
	// One replica is enough to revalidate — they are byte-identical.
	chain, err := ledger.LoadFile(chainFiles[0], nil)
	if err != nil {
		return nil, fmt.Errorf("devnet: replica %s invalid: %w", chainFiles[0], err)
	}
	if chain.Len() < minHeight {
		return nil, fmt.Errorf("devnet: chain height %d < required %d", chain.Len(), minHeight)
	}
	sum := sha256.Sum256(first)
	return &ConvergenceResult{
		Height:   chain.Len(),
		HeadHash: hex.EncodeToString(sum[:]),
		Replicas: len(chainFiles),
	}, nil
}

// ConservationResult is the order-conservation ledger over a whole run.
// Every submitted bid must be accounted for exactly once:
//
//	Matched + Unmatched + Unrevealed + Rejected + Uncommitted == Submitted
//
// where Matched/Unmatched partition the decoded on-chain orders,
// Unrevealed/Rejected are the protocol's deterministic exclusions, and
// Uncommitted are bids that never reached a block (still pooled, lost to
// a kill, or dropped by fault injection).
type ConservationResult struct {
	Submitted   int `json:"submitted"`
	Committed   int `json:"committed"`
	Matched     int `json:"matched"`
	Unmatched   int `json:"unmatched"`
	Unrevealed  int `json:"unrevealed"`
	Rejected    int `json:"rejected"`
	Uncommitted int `json:"uncommitted"`
	Blocks      int `json:"blocks"`
}

// readReports folds participant JSONL reports into digest→order-ID. A
// truncated final line (participant killed mid-write) is tolerated;
// anything else malformed is an error.
func readReports(reportFiles []string) (map[[32]byte]string, error) {
	submitted := make(map[[32]byte]string)
	for _, path := range reportFiles {
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // killed before its first submission
			}
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		var lastErr error
		for sc.Scan() {
			if lastErr != nil {
				f.Close()
				return nil, fmt.Errorf("devnet: report %s: malformed interior line: %w", path, lastErr)
			}
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var rl ReportLine
			if err := json.Unmarshal(line, &rl); err != nil {
				lastErr = err // only fatal if another line follows
				continue
			}
			raw, err := hex.DecodeString(rl.Digest)
			if err != nil || len(raw) != 32 {
				lastErr = fmt.Errorf("bad digest %q", rl.Digest)
				continue
			}
			var d [32]byte
			copy(d[:], raw)
			if prev, dup := submitted[d]; dup && prev != rl.Order {
				f.Close()
				return nil, fmt.Errorf("devnet: digest collision across orders %s and %s", prev, rl.Order)
			}
			submitted[d] = rl.Order
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("devnet: report %s: %w", path, err)
		}
	}
	return submitted, nil
}

// CheckConservation audits one (converged) chain replica against the
// union of participant reports. It verifies, block by block:
//
//   - committed ⊆ submitted: every on-chain bid digest appears in some
//     participant's crash-safe report (nothing materialized from thin air);
//   - no digest is committed twice across the whole chain;
//   - decoded + unrevealed + rejected == len(bids) for every block (the
//     deterministic exclusion rule accounts for every committed bid);
//   - every allocation record references request and offer IDs decoded in
//     its own block or an earlier one — incremental mode carries unmatched
//     orders across blocks, so a record may settle an order revealed
//     rounds ago — and matches each request at most once across the whole
//     chain; a matched offer is consumed, so it cannot reappear in a
//     later block's allocation.
//
// Matched counts decoded order occurrences whose ID some block's
// allocation settled; Unmatched counts the rest (carried-but-never-
// matched orders stay Unmatched, same as the from-scratch accounting).
// The returned totals then satisfy the conservation equation by
// construction; Check recomputes it anyway as a final guard.
func CheckConservation(chainFile string, reportFiles []string) (*ConservationResult, error) {
	submitted, err := readReports(reportFiles)
	if err != nil {
		return nil, err
	}
	chain, err := ledger.LoadFile(chainFile, nil)
	if err != nil {
		return nil, err
	}

	res := &ConservationResult{Submitted: len(submitted), Blocks: chain.Len()}
	committed := make(map[[32]byte]bool)
	decodedEver := make(map[string]bool) // order IDs revealed in any block so far
	matchedReq := make(map[string]int)   // request ID → block that settled it
	matchedOff := make(map[string]int)   // offer ID → block that consumed it
	var decodedSeq []string              // every decoded occurrence, for the final tally
	for i := 0; i < chain.Len(); i++ {
		b := chain.BlockAt(i)
		for _, bid := range b.Bids {
			d := bid.Digest()
			if committed[d] {
				return nil, fmt.Errorf("devnet: block %d: digest %x committed twice", i, d[:8])
			}
			committed[d] = true
			if _, ok := submitted[d]; !ok {
				return nil, fmt.Errorf("devnet: block %d: digest %x on-chain but in no report", i, d[:8])
			}
		}
		res.Committed += len(b.Bids)

		dec := miner.DecryptOrders(b.Bids, b.Body.Reveals)
		decoded := len(dec.Requests) + len(dec.Offers)
		if decoded+dec.Unrevealed+dec.Rejected != len(b.Bids) {
			return nil, fmt.Errorf("devnet: block %d: %d decoded + %d unrevealed + %d rejected != %d bids",
				i, decoded, dec.Unrevealed, dec.Rejected, len(b.Bids))
		}
		res.Unrevealed += dec.Unrevealed
		res.Rejected += dec.Rejected

		for _, r := range dec.Requests {
			decodedEver[string(r.ID)] = true
			decodedSeq = append(decodedSeq, string(r.ID))
		}
		for _, o := range dec.Offers {
			decodedEver[string(o.ID)] = true
			decodedSeq = append(decodedSeq, string(o.ID))
		}
		records, err := ledger.DecodeAllocation(b.Body.Allocation)
		if err != nil {
			return nil, fmt.Errorf("devnet: block %d: %w", i, err)
		}
		// One offer may serve several requests within a block (its
		// capacity splits), but a request is satisfied by at most one
		// record ever, and a consumed offer never returns.
		for _, rec := range records {
			for _, id := range []string{rec.RequestID, rec.OfferID} {
				if !decodedEver[id] {
					return nil, fmt.Errorf("devnet: block %d: allocation names %q, not decoded in this or any earlier block", i, id)
				}
			}
			if at, dup := matchedReq[rec.RequestID]; dup {
				return nil, fmt.Errorf("devnet: block %d: request %q matched twice (first in block %d)", i, rec.RequestID, at)
			}
			matchedReq[rec.RequestID] = i
			if at, seen := matchedOff[rec.OfferID]; seen && at != i {
				return nil, fmt.Errorf("devnet: block %d: offer %q consumed in block %d reappears", i, rec.OfferID, at)
			}
			matchedOff[rec.OfferID] = i
		}
	}
	for _, id := range decodedSeq {
		if _, ok := matchedReq[id]; ok {
			res.Matched++
			continue
		}
		if _, ok := matchedOff[id]; ok {
			res.Matched++
			continue
		}
		res.Unmatched++
	}
	res.Uncommitted = res.Submitted - res.Committed

	if got := res.Matched + res.Unmatched + res.Unrevealed + res.Rejected + res.Uncommitted; got != res.Submitted {
		return nil, fmt.Errorf("devnet: conservation violated: %d accounted != %d submitted (%+v)",
			got, res.Submitted, *res)
	}
	return res, nil
}

// FederatedSettlementResult summarizes the cross-metro audit.
type FederatedSettlementResult struct {
	// SettledRoots is how many distinct request roots settled anywhere in
	// the federation.
	SettledRoots int `json:"settled_roots"`
	// SpillSettled counts settlements that landed off-home — allocation
	// records whose request ID carries a hop suffix ("r~x2" means the
	// request's second hop matched).
	SpillSettled int `json:"spill_settled"`
	// Metros is how many chains the audit covered.
	Metros int `json:"metros"`
}

// CheckFederatedSettlement audits the federation-wide uniqueness
// invariant: a request that spills travels under hop-suffixed aliases
// ("r", "r~x1", "r~x2", …) but all aliases share one root, and that
// root may settle on AT MOST one metro chain, exactly once. Per-metro
// conservation already guarantees each full ID settles once within its
// chain; this check catches the cross-chain double-settle a buggy
// forwarder (or a partition replaying a spill) would cause.
func CheckFederatedSettlement(metroChainFiles []string) (*FederatedSettlementResult, error) {
	chains := make([]*ledger.Chain, len(metroChainFiles))
	for m, path := range metroChainFiles {
		chain, err := ledger.LoadFile(path, nil)
		if err != nil {
			return nil, fmt.Errorf("devnet: metro %d chain %s: %w", m, path, err)
		}
		chains[m] = chain
	}
	res := &FederatedSettlementResult{Metros: len(chains)}
	var err error
	res.SettledRoots, res.SpillSettled, err = ledger.CheckNoDoubleSettle(SpillRoot, chains...)
	return res, err
}
