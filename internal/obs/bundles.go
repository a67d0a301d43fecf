package obs

import "fmt"

// Typed metric bundles: one struct of pre-resolved metrics per
// instrumented subsystem, so hot paths never do a registry lookup. Every
// constructor returns nil on a nil registry — instrumentation sites
// guard with a single pointer compare, keeping the disabled path free of
// clock reads and atomics.

// MechanismMetrics instruments the allocation mechanism
// (internal/auction + internal/match + internal/cluster): per-phase
// latencies of the pipeline every verifying miner re-executes, and the
// market structure each block produced.
type MechanismMetrics struct {
	Blocks          *Counter   // decloud_mech_blocks_total
	RunSeconds      *Histogram // whole-mechanism wall time per block
	IndexSeconds    *Histogram // match.Index build
	ClusterSeconds  *Histogram // best-offer scoring + cluster formation
	PrepassSeconds  *Histogram // per-cluster economics pre-passes
	AuctionsSeconds *Histogram // mini-auction pricing/reduction/packing
	TopKScans       *Counter   // offers scanned by the pruned top-k loop
	Clusters        *Counter   // clusters formed
	MiniAuctions    *Counter   // mini-auctions run
	Matches         *Counter   // executed trades
	ReducedRequests *Counter   // requests lost to trade reduction
	ReducedOffers   *Counter   // offers lost to trade reduction
	LotteryDropped  *Counter   // requests lost to randomized exclusion
	RejectedOrders  *Counter   // orders failing validation at intake
	BidWelfareSum   *Gauge     // cumulative bid-based welfare
	LastBidWelfare  *Gauge     // bid-based welfare of the latest block
}

// NewMechanismMetrics resolves the mechanism bundle (nil registry → nil).
func NewMechanismMetrics(r *Registry) *MechanismMetrics {
	if r == nil {
		return nil
	}
	return &MechanismMetrics{
		Blocks:          r.Counter("decloud_mech_blocks_total", "blocks run through the allocation mechanism"),
		RunSeconds:      r.Histogram("decloud_mech_run_seconds", "wall time of one mechanism run", nil),
		IndexSeconds:    r.Histogram("decloud_mech_index_seconds", "match index build time", nil),
		ClusterSeconds:  r.Histogram("decloud_mech_cluster_seconds", "best-offer scoring and cluster formation time", nil),
		PrepassSeconds:  r.Histogram("decloud_mech_prepass_seconds", "cluster economics pre-pass time", nil),
		AuctionsSeconds: r.Histogram("decloud_mech_auctions_seconds", "mini-auction execution time", nil),
		TopKScans:       r.Counter("decloud_mech_topk_scans_total", "offers scanned by the top-k best-offer loop"),
		Clusters:        r.Counter("decloud_mech_clusters_total", "clusters formed"),
		MiniAuctions:    r.Counter("decloud_mech_mini_auctions_total", "mini-auctions run"),
		Matches:         r.Counter("decloud_mech_matches_total", "executed trades"),
		ReducedRequests: r.Counter("decloud_mech_reduced_requests_total", "requests excluded by trade reduction"),
		ReducedOffers:   r.Counter("decloud_mech_reduced_offers_total", "offers excluded by trade reduction"),
		LotteryDropped:  r.Counter("decloud_mech_lottery_dropped_total", "requests dropped by the randomized exclusion lottery"),
		RejectedOrders:  r.Counter("decloud_mech_rejected_orders_total", "orders rejected at validation"),
		BidWelfareSum:   r.Gauge("decloud_mech_bid_welfare_sum", "cumulative bid-based welfare across blocks"),
		LastBidWelfare:  r.Gauge("decloud_mech_bid_welfare_last", "bid-based welfare of the latest block"),
	}
}

// MinerMetrics instruments the protocol round loop (internal/miner and
// the producing side of p2p.MarketNode).
type MinerMetrics struct {
	Rounds         *Counter   // decloud_miner_rounds_total
	BlocksAccepted *Counter   // rounds that converged on a verified block
	RevealAttempts *Counter   // reveal-phase delivery attempts (≥1 per round)
	RevealRetries  *Counter   // extra attempts beyond the first
	RevealLosses   *Counter   // reveal deliveries lost in transit
	ExcludedBids   *Counter   // bids excluded after the retry budget
	RevealsRefused *Counter   // reveals a collecting round turned away at the intake
	UnrevealedBids *Counter   // bids opened as unrevealed at decryption
	RejectedBids   *Counter   // bids dropped for integrity at decryption
	Slashes        *Counter   // producers slashed for rejected blocks
	BidSigChecked  *Counter   // bid signatures checked, at the door or inside a block
	BidSigSkipped  *Counter   // in-block checks skipped: the node had checked the bid at its door
	RoundSeconds   *Histogram // full-round wall time
	RevealSeconds  *Histogram // reveal-collection wall time
	ComputeSeconds *Histogram // decrypt + allocate wall time
	VerifySeconds  *Histogram // verification wall time
	// Pipelined-epoch production (Network.RunPipelined,
	// MarketNode.RunPipeline): speculative productions flushed because
	// the committed parent diverged (Byzantine re-election), and the
	// wall time of each overlapped stage.
	PipelineFlushes *Counter   // speculative stage-1 productions redone
	ProduceSeconds  *Histogram // stage 1: elect/mine + reveal collection
	CommitSeconds   *Histogram // stage 2: compute + verify + append
}

// NewMinerMetrics resolves the miner bundle (nil registry → nil).
func NewMinerMetrics(r *Registry) *MinerMetrics {
	if r == nil {
		return nil
	}
	return &MinerMetrics{
		Rounds:         r.Counter("decloud_miner_rounds_total", "protocol rounds started"),
		BlocksAccepted: r.Counter("decloud_miner_blocks_accepted_total", "rounds converged on a verified block"),
		RevealAttempts: r.Counter("decloud_miner_reveal_attempts_total", "reveal-phase delivery attempts"),
		RevealRetries:  r.Counter("decloud_miner_reveal_retries_total", "reveal-phase retries beyond the first attempt"),
		RevealLosses:   r.Counter("decloud_miner_reveal_losses_total", "reveal deliveries lost in transit"),
		ExcludedBids:   r.Counter("decloud_miner_excluded_bids_total", "bids excluded after the reveal retry budget"),
		RevealsRefused: r.Counter("decloud_miner_reveals_refused_total", "reveals refused at a collecting round's intake: unwanted digest, duplicate, or a key the bid does not commit to"),
		UnrevealedBids: r.Counter("decloud_miner_unrevealed_bids_total", "bids unrevealed at decryption"),
		RejectedBids:   r.Counter("decloud_miner_rejected_bids_total", "bids rejected for integrity at decryption"),
		Slashes:        r.Counter("decloud_miner_slashes_total", "producers slashed for rejected blocks"),
		BidSigChecked:  r.Counter("decloud_miner_bid_sig_checked_total", "bid signatures checked, at the node's door or inside a block"),
		BidSigSkipped:  r.Counter("decloud_miner_bid_sig_skipped_total", "in-block bid signature checks skipped because the node checked the bid at its door"),
		RoundSeconds:   r.Histogram("decloud_miner_round_seconds", "full protocol round wall time", nil),
		RevealSeconds:  r.Histogram("decloud_miner_reveal_seconds", "reveal collection wall time", nil),
		ComputeSeconds: r.Histogram("decloud_miner_compute_seconds", "decrypt and allocation wall time", nil),
		VerifySeconds:  r.Histogram("decloud_miner_verify_seconds", "block verification wall time", nil),

		PipelineFlushes: r.Counter("decloud_miner_pipeline_flushes_total", "speculative productions flushed after a re-elected parent"),
		ProduceSeconds:  r.Histogram("decloud_miner_pipeline_produce_seconds", "pipeline stage 1 (production + reveals) wall time", nil),
		CommitSeconds:   r.Histogram("decloud_miner_pipeline_commit_seconds", "pipeline stage 2 (compute + verify + append) wall time", nil),
	}
}

// NetMetrics instruments the TCP gossip transport (internal/p2p.Node):
// connection churn, bytes on the wire, and fault-plan verdicts.
type NetMetrics struct {
	Conns        *Gauge   // decloud_p2p_conns — live connections
	SentMsgs     *Counter // messages written to peers
	SentBytes    *Counter // bytes written to peers
	RecvMsgs     *Counter // frames received
	RecvBytes    *Counter // bytes received
	Malformed    *Counter // connections dropped for a malformed frame
	Rejected     *Counter // inbound connections refused at the accept limit
	Oversize     *Counter // connections dropped for exceeding the frame limit
	Stalled      *Counter // peers dropped for a write that made no progress within the stall timeout
	PoolDropped  *Counter // bids refused at the mempool limit
	FaultDropped *Counter // messages dropped by the fault plan
	FaultDelayed *Counter // messages delayed by the fault plan
	FaultDup     *Counter // duplicate local deliveries injected
}

// NewNetMetrics resolves the transport bundle (nil registry → nil).
func NewNetMetrics(r *Registry) *NetMetrics {
	if r == nil {
		return nil
	}
	return &NetMetrics{
		Conns:        r.Gauge("decloud_p2p_conns", "live gossip connections"),
		SentMsgs:     r.Counter("decloud_p2p_sent_msgs_total", "messages written to peers"),
		SentBytes:    r.Counter("decloud_p2p_sent_bytes_total", "bytes written to peers"),
		RecvMsgs:     r.Counter("decloud_p2p_recv_msgs_total", "frames received"),
		RecvBytes:    r.Counter("decloud_p2p_recv_bytes_total", "bytes received"),
		Malformed:    r.Counter("decloud_p2p_malformed_msgs_total", "connections dropped for a malformed frame"),
		Rejected:     r.Counter("decloud_p2p_rejected_conns_total", "inbound connections refused at the accept limit"),
		Oversize:     r.Counter("decloud_p2p_oversize_frames_total", "connections dropped for exceeding the frame limit"),
		Stalled:      r.Counter("decloud_p2p_stalled_peers_total", "peers dropped for a write that made no progress within the stall timeout"),
		PoolDropped:  r.Counter("decloud_p2p_pool_dropped_total", "bids refused at the mempool limit"),
		FaultDropped: r.Counter("decloud_p2p_fault_dropped_total", "messages dropped by the fault plan"),
		FaultDelayed: r.Counter("decloud_p2p_fault_delayed_total", "messages delayed by the fault plan"),
		FaultDup:     r.Counter("decloud_p2p_fault_dup_deliveries_total", "duplicate local deliveries injected by the fault plan"),
	}
}

// SimMetrics instruments the simulation driver (internal/sim).
type SimMetrics struct {
	Rounds     *Counter // decloud_sim_rounds_total
	Requests   *Counter // requests submitted
	Offers     *Counter // offers submitted
	Matches    *Counter // trades executed
	Agreed     *Counter // agreements accepted (ledger mode)
	Denied     *Counter // agreements denied (ledger mode)
	Carried    *Counter // requests carried for resubmission
	Expired    *Counter // requests expired after max resubmits
	WelfareSum *Gauge   // cumulative realized welfare
}

// NewSimMetrics resolves the simulation bundle (nil registry → nil).
func NewSimMetrics(r *Registry) *SimMetrics {
	if r == nil {
		return nil
	}
	return &SimMetrics{
		Rounds:     r.Counter("decloud_sim_rounds_total", "simulation rounds completed"),
		Requests:   r.Counter("decloud_sim_requests_total", "requests submitted"),
		Offers:     r.Counter("decloud_sim_offers_total", "offers submitted"),
		Matches:    r.Counter("decloud_sim_matches_total", "trades executed"),
		Agreed:     r.Counter("decloud_sim_agreed_total", "agreements accepted"),
		Denied:     r.Counter("decloud_sim_denied_total", "agreements denied"),
		Carried:    r.Counter("decloud_sim_carried_total", "requests carried for resubmission"),
		Expired:    r.Counter("decloud_sim_expired_total", "requests expired after max resubmits"),
		WelfareSum: r.Gauge("decloud_sim_welfare_sum", "cumulative realized welfare"),
	}
}

// MetroMetrics instruments the geo-federated metro layer
// (internal/metro): cross-metro spill traffic, settlement outcomes, and
// per-metro welfare/latency gauges. Like every bundle it is purely
// observational — federation outcomes are byte-identical with the
// bundle nil or set.
type MetroMetrics struct {
	Rounds       *Counter // decloud_metro_rounds_total
	Spills       *Counter // decloud_metro_spill_total — spill transfers between exchanges
	SpillExpired *Counter // decloud_metro_spill_expired_total — orders that died with no eligible neighbor
	MatchedLocal *Counter // decloud_metro_matched_local_total — requests settled in their home metro
	MatchedSpill *Counter // decloud_metro_matched_spill_total — requests settled after spilling
	// Per-metro gauges, indexed by metro (decloud_metro_*_m<i>):
	// welfare cleared by the latest round, mean spill-path latency of the
	// requests the metro settled, and live orders in the metro's book.
	Welfare    []*Gauge
	SpillMS    []*Gauge
	LiveOrders []*Gauge
}

// NewMetroMetrics resolves the metro bundle for a federation of the
// given size (nil registry → nil).
func NewMetroMetrics(r *Registry, metros int) *MetroMetrics {
	if r == nil {
		return nil
	}
	m := &MetroMetrics{
		Rounds:       r.Counter("decloud_metro_rounds_total", "federation cross-settlement rounds completed"),
		Spills:       r.Counter("decloud_metro_spill_total", "requests spilled to a neighbor metro"),
		SpillExpired: r.Counter("decloud_metro_spill_expired_total", "requests expired with no eligible spill target"),
		MatchedLocal: r.Counter("decloud_metro_matched_local_total", "requests settled in their home metro"),
		MatchedSpill: r.Counter("decloud_metro_matched_spill_total", "requests settled after spilling"),
	}
	for i := 0; i < metros; i++ {
		m.Welfare = append(m.Welfare, r.Gauge(
			fmt.Sprintf("decloud_metro_welfare_m%d", i), fmt.Sprintf("bid welfare cleared by metro %d in the latest round", i)))
		m.SpillMS = append(m.SpillMS, r.Gauge(
			fmt.Sprintf("decloud_metro_spill_ms_m%d", i), fmt.Sprintf("mean spill-path latency (ms) of requests metro %d settled in the latest round", i)))
		m.LiveOrders = append(m.LiveOrders, r.Gauge(
			fmt.Sprintf("decloud_metro_live_orders_m%d", i), fmt.Sprintf("live orders in metro %d's book", i)))
	}
	return m
}
