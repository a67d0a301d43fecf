// Package decloud is a reproduction of "DeCloud: Truthful Decentralized
// Double Auction for Edge Clouds" (Zavodovski et al., ICDCS 2019): a
// decentralized market that matches heterogeneous edge-computing demand
// to supply through a dominant-strategy incentive-compatible (DSIC),
// strongly budget-balanced, individually rational double auction, run on
// a blockchain via a two-phase sealed-bid exposure protocol.
//
// The package is a thin façade over the implementation packages:
//
//   - RunAuction / RunGreedyBenchmark execute the mechanism (or the
//     paper's non-truthful greedy benchmark) on one block of orders.
//   - GenerateMarket / GenerateDivergentMarket synthesize the paper's
//     evaluation workloads (Google-trace-shaped demand on an EC2 M5
//     provider fleet).
//   - NewNetwork and NewParticipant run the full two-phase protocol:
//     sealed bids, proof-of-work mining, key reveal, deterministic
//     allocation, independent verification, and contract agreement.
//   - Simulate drives multi-round market simulations in either mode.
//
// See examples/ for runnable programs and DESIGN.md for the mapping from
// the paper's sections to packages.
package decloud

import (
	"context"
	"io"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/contract"
	"decloud/internal/ledger"
	"decloud/internal/miner"
	"decloud/internal/p2p"
	"decloud/internal/reputation"
	"decloud/internal/resource"
	"decloud/internal/sim"
	"decloud/internal/workload"
)

// Core bidding-language types (Section IV, Eqs. 1–2).
type (
	// Request is a client's order for running one container.
	Request = bidding.Request
	// Offer is a provider's order offering one device.
	Offer = bidding.Offer
	// Location tags orders with a place (geo or network coordinate).
	Location = bidding.Location
	// ParticipantID identifies a client or provider.
	ParticipantID = bidding.ParticipantID
	// OrderID identifies a single request or offer.
	OrderID = bidding.OrderID
	// Vector is a sparse resource vector ρ.
	Vector = resource.Vector
	// Kind is a resource type k ∈ K (CPU, RAM, latency, SGX, ...).
	Kind = resource.Kind
)

// Well-known resource kinds.
const (
	CPU       = resource.CPU
	RAM       = resource.RAM
	Disk      = resource.Disk
	Bandwidth = resource.Bandwidth
	Latency   = resource.Latency
	GPU       = resource.GPU
	SGX       = resource.SGX
	Repute    = resource.Repute
)

// Mechanism types (Section IV).
type (
	// AuctionConfig tunes the mechanism.
	AuctionConfig = auction.Config
	// Outcome is a block's allocation: matches, payments, revenues, and
	// reduction bookkeeping.
	Outcome = auction.Outcome
	// TradeMatch is one executed trade.
	TradeMatch = auction.Match
)

// DefaultAuctionConfig returns the tuning used in the paper evaluation.
// Its Workers field sizes the mechanism's worker pool to GOMAXPROCS;
// any value yields byte-identical outcomes (set 1 to force sequential
// execution — see DESIGN.md §7).
func DefaultAuctionConfig() AuctionConfig { return auction.DefaultConfig() }

// RunAuction executes DeCloud's DSIC double auction over one block of
// orders. Under truthful bidding (Bid == TrueValue / TrueCost) the
// outcome maximizes each participant's utility (Section IV-D). The
// outcome does not depend on cfg.Workers, so differently provisioned
// nodes verify each other's blocks bit-for-bit.
func RunAuction(requests []*Request, offers []*Offer, cfg AuctionConfig) *Outcome {
	return auction.Run(requests, offers, cfg)
}

// RunGreedyBenchmark executes the paper's non-truthful benchmark: the
// same matching pipeline without trade reduction or randomization — the
// best welfare greedy allocation can achieve (Section V).
func RunGreedyBenchmark(requests []*Request, offers []*Offer, cfg AuctionConfig) *Outcome {
	return auction.RunGreedy(requests, offers, cfg)
}

// Workload generation (Section V).
type (
	// MarketConfig shapes a generated market.
	MarketConfig = workload.Config
	// DivergentMarketConfig adds controlled supply/demand divergence.
	DivergentMarketConfig = workload.DivergentConfig
	// Market is one block's worth of truthful orders.
	Market = workload.Market
)

// GenerateMarket synthesizes a trace-driven market: Google-trace-shaped
// requests, EC2 M5 offers, and valuations anchored at best-match costs.
func GenerateMarket(cfg MarketConfig) *Market { return workload.Generate(cfg) }

// GenerateDivergentMarket synthesizes a market whose demand diverges from
// supply by a controlled amount, returning the realized similarity
// 1 − KLD(demand ‖ supply) — the x-axis of the paper's Figures 5d–5f.
func GenerateDivergentMarket(cfg DivergentMarketConfig) (*Market, float64) {
	return workload.GenerateDivergent(cfg)
}

// Two-phase protocol (Section III).
type (
	// Network is an in-process miner overlay running the protocol.
	Network = miner.Network
	// Participant seals and reveals bids for one client or provider.
	Participant = miner.Participant
	// RoundResult summarizes one protocol round.
	RoundResult = miner.RoundResult
	// Chain is the append-only validated block sequence.
	Chain = ledger.Chain
	// Block is a mined block: preamble, sealed bids, and body.
	Block = ledger.Block
	// ContractRegistry is the smart-contract agreement store.
	ContractRegistry = contract.Registry
	// Agreement is one proposed client↔provider engagement.
	Agreement = contract.Agreement
	// AgreementID identifies an agreement.
	AgreementID = contract.AgreementID
	// ReputationStore tracks accept/deny reputations.
	ReputationStore = reputation.Store
)

// Agreement lifecycle states.
const (
	AgreementProposed = contract.Proposed
	AgreementAgreed   = contract.Agreed
	AgreementDenied   = contract.Denied
)

// NewNetwork creates a miner network of n miners at the given
// proof-of-work difficulty (leading zero bits).
func NewNetwork(miners, difficulty int, cfg AuctionConfig) *Network {
	return miner.NewNetwork(miners, difficulty, cfg)
}

// NewParticipant creates a protocol participant with a fresh identity.
// Pass nil to use crypto/rand entropy.
func NewParticipant(entropy io.Reader) (*Participant, error) {
	return miner.NewParticipant(entropy)
}

// RunRound executes one full two-phase protocol round on the network.
func RunRound(ctx context.Context, n *Network, participants []*Participant) (*RoundResult, error) {
	return n.RunRound(ctx, participants)
}

// Consensus and verification variants (Section VI's discussion).
const (
	// ConsensusProofOfWork races miners on the PoW puzzle (default).
	ConsensusProofOfWork = miner.ProofOfWork
	// ConsensusProofOfStake elects a stake-weighted leader — the "green"
	// alternative (Casper/Sawtooth) the paper anticipates.
	ConsensusProofOfStake = miner.ProofOfStake
	// VerifyAll has every miner re-execute every block.
	VerifyAll = miner.VerifyAll
	// VerifySampled uses TrueBit-style probabilistic challengers.
	VerifySampled = miner.VerifySampled
)

// Networked deployment (internal/p2p): miners and participants as
// separate processes over TCP gossip.
type (
	// MarketNode is a miner on the TCP gossip network.
	MarketNode = p2p.MarketNode
	// LoadClient is the participant endpoint: it seals bids under any
	// number of identities, publishes them, and reveals their keys when a
	// preamble commits them.
	LoadClient = p2p.LoadClient
)

// NewMarketNode starts a networked miner node listening on addr.
func NewMarketNode(name, addr string, difficulty int, cfg AuctionConfig) (*MarketNode, error) {
	return p2p.NewMarketNode(name, addr, difficulty, cfg)
}

// NewLoadClient starts a networked participant endpoint carrying one
// identity per entropy reader (a nil entry draws from crypto/rand).
func NewLoadClient(name, addr string, entropy []io.Reader) (*LoadClient, error) {
	return p2p.NewLoadClient(name, addr, entropy, nil)
}

// LoadChain reads a persisted chain, re-validating every block.
func LoadChain(path string, verify func(*Block) error) (*Chain, error) {
	return ledger.LoadFile(path, verify)
}

// Simulation.
type (
	// SimConfig parameterizes a multi-round simulation.
	SimConfig = sim.Config
	// SimResult aggregates round metrics.
	SimResult = sim.Result
	// RoundMetrics captures one round's market performance.
	RoundMetrics = sim.RoundMetrics
)

// Simulation modes.
const (
	// SimFast runs the mechanism directly each round.
	SimFast = sim.Fast
	// SimLedger runs the full two-phase protocol each round.
	SimLedger = sim.Ledger
)

// Simulate runs a multi-round market simulation.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }
