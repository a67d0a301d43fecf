package devnet

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"decloud/internal/auction"
	"decloud/internal/bidding"
	"decloud/internal/chaos"
	"decloud/internal/metro"
	"decloud/internal/p2p"
	"decloud/internal/sealed"
	"decloud/internal/workload"
)

// Child processes are this same binary re-executed with a role: the
// orchestrator sets RoleEnv and ConfigEnv and spawns os.Executable().
// Both cmd/decloud-devnet and the devnet test binary call MaybeRunRole
// first thing, so a race-instrumented `go test -race` binary re-execs
// itself and every node process runs under the race detector too.
const (
	// RoleEnv selects the child's role: "miner" or "participant".
	RoleEnv = "DECLOUD_DEVNET_ROLE"
	// ConfigEnv is the path of the role's JSON config file.
	ConfigEnv = "DECLOUD_DEVNET_CONFIG"
)

// MaybeRunRole checks the environment for a devnet role and, if one is
// set, runs it and exits the process. Call it at the top of main (and of
// TestMain in packages whose test binary doubles as the devnet helper);
// it returns immediately when no role is set.
func MaybeRunRole() {
	role := os.Getenv(RoleEnv)
	if role == "" {
		return
	}
	os.Exit(RunRole(role, os.Getenv(ConfigEnv)))
}

// RunRole runs one devnet role to completion and returns its exit code.
func RunRole(role, configPath string) int {
	var err error
	switch role {
	case "miner":
		err = runMiner(configPath)
	case "participant":
		err = runParticipant(configPath)
	default:
		err = fmt.Errorf("devnet: unknown role %q", role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "devnet %s: %v\n", role, err)
		return 1
	}
	return 0
}

// MinerConfig is the JSON config of a miner process. Every miner mines
// at the devnet's PoW difficulty; the producer cuts a round once minPool
// bids are pending, or maxPoolWait after the pool turned non-empty.
type MinerConfig struct {
	Name   string   `json:"name"`
	Listen string   `json:"listen"`
	Peers  []string `json:"peers"`

	// Produce marks the block producer; the rest verify and vote.
	Produce bool `json:"produce"`
	// Quorum is the OK votes the producer waits for per round.
	Quorum int `json:"quorum"`
	// Incremental runs this miner over a continuous order book (carried
	// orders compete in every block).
	Incremental bool `json:"incremental"`
	// ChainFile is the node's chain file (p2p.MarketNode.LoadChain):
	// reloaded at start-up, rewritten after every appended block and at
	// shutdown; ReadyFile receives the node's listen address once it
	// accepts connections; StatusFile (optional) receives a MinerStatus
	// JSON snapshot once a second — the orchestrator's window into the
	// producer's mempool at teardown.
	ChainFile  string `json:"chain_file"`
	ReadyFile  string `json:"ready_file"`
	StatusFile string `json:"status_file"`

	// Metro federation (producer + Incremental only). Metro is this
	// exchange's index; SpillPeerReady maps every other metro to its
	// producer's ready file — resolved lazily, since the neighbor may
	// start after this process. A request that exhausts its carry budget
	// here is re-sealed by a relay identity, logged to SpillReport
	// (crash-safe, BEFORE the broadcast — the target chain's committed ⊆
	// submitted audit includes this file), and published to the producer
	// of the metro metro.LatencyMatrix.SpillTarget picks. Its ID carries
	// the metros it has visited (root~x<home>.<next>…); forwarding stops
	// at MaxHops (default metro.DefaultMaxHops).
	Metro          int            `json:"metro,omitempty"`
	SpillPeerReady map[int]string `json:"spill_peer_ready,omitempty"`
	SpillReport    string         `json:"spill_report,omitempty"`
	MaxHops        int            `json:"max_hops,omitempty"`

	// Plan (optional) injects transport faults; its logical clock starts
	// at StartTick and advances once per tickMS of wall time, so every
	// process — whenever it (re)started — agrees on when fault windows
	// open and close.
	Plan      *chaos.Plan `json:"plan,omitempty"`
	StartTick int64       `json:"start_tick"`
}

// ParticipantConfig is the JSON config of a participant process.
type ParticipantConfig struct {
	Name  string   `json:"name"`
	Peers []string `json:"peers"`
	// Stream shapes this participant's private order stream; its
	// IDPrefix must be unique per participant so IDs never collide.
	Stream workload.StreamConfig `json:"stream"`
	// Rate paces emission in orders/second (0 = one order per 100 ms);
	// emission runs until SIGUSR1 or SIGTERM.
	Rate float64 `json:"rate"`
	// ReportFile receives one JSON line per submitted order — written
	// with an unbuffered fd BEFORE the bid is broadcast, so the
	// submitted-set survives a SIGKILL mid-flight.
	ReportFile string `json:"report_file"`
	ReadyFile  string `json:"ready_file"`

	Plan      *chaos.Plan `json:"plan,omitempty"`
	StartTick int64       `json:"start_tick"`
}

// MinerStatus is the periodic snapshot a miner writes to its StatusFile.
type MinerStatus struct {
	Height int `json:"height"`
	Pool   int `json:"pool"`
	// InFlight is true while a production round is running. The pool is
	// drained at round START, so Pool == 0 alone does not mean the
	// producer is idle — the orchestrator must see Pool == 0 AND
	// !InFlight before it may stop the miners.
	InFlight bool `json:"in_flight"`
}

// ReportLine is one participant report entry.
type ReportLine struct {
	Order  string `json:"order"`
	Digest string `json:"digest"` // hex of the sealed bid digest
	Kind   string `json:"kind"`   // "request" | "offer"
}

// Spill hop suffix: a forwarded request "r" travels as "r~x<path>",
// where path lists the metros it has visited, dot-separated, home
// first: "r~x2.0" left metro 2 for metro 0. The root survives every
// hop, so the cross-metro audit can assert each ROOT settles at most
// once federation-wide even though the per-hop bids are distinct
// on-chain orders.

// SpillRoot strips the ~x<path> hop suffix from a forwarded request ID.
func SpillRoot(id string) string {
	root, _ := spillPath(id)
	return root
}

// spillPath splits a request ID into its root and the metros it has
// visited (nil = never forwarded).
func spillPath(id string) (string, []int) {
	i := strings.LastIndex(id, "~x")
	if i < 0 {
		return id, nil
	}
	var path []int
	for _, part := range strings.Split(id[i+2:], ".") {
		m, err := strconv.Atoi(part)
		if err != nil || m < 0 || m >= 64 {
			return id, nil
		}
		path = append(path, m)
	}
	return id[:i], path
}

// spillForwarder is the producer-side federation relay: it re-seals
// carry-out requests under its own identities and publishes them to
// neighbor metro producers, one relay client per neighbor metro (and
// one report line per forwarded bid). Peer addresses resolve lazily from
// ready files — the neighbor may start later, crash, or sit behind a
// partition; an unreachable neighbor just drops the spill (the order
// stays accounted as uncommitted in the audit).
type spillForwarder struct {
	cfg    MinerConfig
	lat    *metro.LatencyMatrix // the devnet's ring over every metro
	report *os.File
	relays map[int]*p2p.LoadClient // lazily dialed, by neighbor metro
}

func newSpillForwarder(cfg MinerConfig) (*spillForwarder, error) {
	report, err := os.OpenFile(cfg.SpillReport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &spillForwarder{
		cfg:    cfg,
		lat:    metro.DefaultMatrix(len(cfg.SpillPeerReady) + 1),
		report: report,
		relays: make(map[int]*p2p.LoadClient),
	}, nil
}

func (f *spillForwarder) Close() {
	for _, lc := range f.relays {
		if lc != nil {
			lc.Close()
		}
	}
	f.report.Close()
}

// relay returns the lazily-connected client for neighbor metro k, or
// nil when the neighbor's producer has no ready file yet (still
// starting, or gone).
func (f *spillForwarder) relay(k int) *p2p.LoadClient {
	if f.relays[k] != nil {
		return f.relays[k]
	}
	data, err := os.ReadFile(f.cfg.SpillPeerReady[k])
	if err != nil || len(data) == 0 {
		return nil
	}
	addr := strings.TrimSpace(string(data))
	lc, err := p2p.NewLoadClient(fmt.Sprintf("%sx%d", f.cfg.Name, k), "127.0.0.1:0", make([]io.Reader, 1), nil)
	if err != nil {
		return nil
	}
	if f.cfg.Plan != nil {
		lc.SetFaults(f.cfg.Plan)
	}
	if err := lc.Connect(addr); err != nil {
		lc.Close()
		return nil
	}
	f.relays[k] = lc
	return lc
}

// Forward routes every carry-out request within the hop budget to the
// nearest metro it has not visited (metro.LatencyMatrix.SpillTarget,
// the federation's own rule). The report line lands on disk BEFORE the
// broadcast — committed ⊆ submitted holds on the target chain through
// any kill.
func (f *spillForwarder) Forward(carried []*bidding.Request) {
	maxHops := f.cfg.MaxHops
	if maxHops <= 0 {
		maxHops = metro.DefaultMaxHops
	}
	for _, r := range carried {
		_, path := spillPath(string(r.ID))
		next := string(r.ID)
		if path == nil {
			path = []int{f.cfg.Metro} // homed here
			next = fmt.Sprintf("%s~x%d", r.ID, f.cfg.Metro)
		}
		visited := uint64(0)
		for _, m := range path {
			visited |= 1 << uint(m)
		}
		to, ok := f.lat.SpillTarget(f.cfg.Metro, visited)
		if !ok || len(path)-1 >= maxHops {
			continue // every metro visited or budget spent: expires here
		}
		lc := f.relay(to)
		if lc == nil {
			continue // neighbor unreachable: spill dropped, stays audited
		}
		rr := *r
		rr.Resources = r.Resources.Clone()
		rr.ID = bidding.OrderID(fmt.Sprintf("%s.%d", next, to))
		bid, err := lc.SealRequest(0, &rr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "devnet miner %s: seal spill %s: %v\n", f.cfg.Name, rr.ID, err)
			continue
		}
		if err := reportBid(f.report, string(rr.ID), "request", bid); err != nil {
			fmt.Fprintf(os.Stderr, "devnet miner %s: spill report: %v\n", f.cfg.Name, err)
			continue
		}
		if err := lc.Publish(string(rr.ID), bid); err != nil {
			fmt.Fprintf(os.Stderr, "devnet miner %s: publish spill %s: %v\n", f.cfg.Name, rr.ID, err)
		}
	}
}

// reportBid appends a sealed bid's report line — a bare write syscall on
// an O_APPEND fd, which survives SIGKILL. Every sender does it between
// sealing and broadcasting, so a bid can never be committed on-chain
// without its digest already in a report: the auditor's committed ⊆
// submitted invariant holds through any kill the orchestrator injects.
func reportBid(report *os.File, order, kind string, bid *sealed.Bid) error {
	digest := bid.Digest()
	line, _ := json.Marshal(ReportLine{Order: order, Digest: hex.EncodeToString(digest[:]), Kind: kind})
	_, err := report.Write(append(line, '\n'))
	return err
}

func readConfig(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// startPlanClock drives a plan's logical clock from wall time until ctx
// ends, one tick per tickMS. Done synchronously at ticker cadence;
// SetNow is atomic.
func startPlanClock(ctx context.Context, plan *chaos.Plan, startTick int64) {
	if plan == nil {
		return
	}
	plan.SetNow(startTick)
	start := time.Now()
	go func() {
		t := time.NewTicker(time.Duration(tickMS) * time.Millisecond / 4)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				plan.SetNow(startTick + int64(time.Since(start).Milliseconds())/int64(tickMS))
			}
		}
	}()
}

// connectAll dials each peer, retrying for up to 15 s per peer — peers
// may still be starting. Failure to reach a peer is tolerated (it may be
// crashed on purpose); at least one connection must succeed.
func connectAll(dial func(string) error, peers []string) error {
	ok := 0
	for _, peer := range peers {
		deadline := time.Now().Add(15 * time.Second)
		for {
			err := dial(peer)
			if err == nil {
				ok++
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	if ok == 0 && len(peers) > 0 {
		return fmt.Errorf("devnet: no peer reachable of %d", len(peers))
	}
	return nil
}

func writeReady(path, addr string) error {
	if path == "" {
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func runMiner(configPath string) error {
	var cfg MinerConfig
	if err := readConfig(configPath, &cfg); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	return runMinerWith(ctx, cfg)
}

// roundTimeout bounds one produced round. The block is appended and
// broadcast before vote collection, so a quorum that never arrives costs
// at most this long and the chain still grows.
const roundTimeout = 12 * time.Second

// runMinerWith is the miner role's body, factored from the signal shell
// so tests can run a miner in-process under a cancellable context.
func runMinerWith(ctx context.Context, cfg MinerConfig) error {
	acfg := auction.DefaultConfig()
	acfg.Incremental = cfg.Incremental
	mn, err := p2p.NewMarketNode(cfg.Name, cfg.Listen, difficulty, acfg)
	if err != nil {
		return err
	}
	defer mn.Close()
	if cfg.ChainFile != "" {
		if err := mn.LoadChain(cfg.ChainFile); err != nil {
			return err
		}
	}
	if cfg.Plan != nil {
		mn.SetFaults(cfg.Plan)
		startPlanClock(ctx, cfg.Plan, cfg.StartTick)
	}
	if err := connectAll(mn.Connect, cfg.Peers); err != nil {
		return err
	}
	var spill *spillForwarder
	if cfg.Produce && cfg.Incremental && len(cfg.SpillPeerReady) > 0 {
		mn.Book().SetTrackRemovals(true)
		spill, err = newSpillForwarder(cfg)
		if err != nil {
			return err
		}
		defer spill.Close()
	}
	if err := writeReady(cfg.ReadyFile, mn.Addr()); err != nil {
		return err
	}

	// Status runs on its own goroutine so snapshots stay fresh even while
	// the production loop sits in a round (e.g. a vote wait).
	var producing atomic.Bool
	if cfg.StatusFile != "" {
		go func() {
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				data, _ := json.Marshal(MinerStatus{
					Height:   mn.Chain().Len(),
					Pool:     mn.MempoolSize(),
					InFlight: producing.Load(),
				})
				tmp := cfg.StatusFile + ".tmp"
				if err := os.WriteFile(tmp, data, 0o644); err == nil {
					_ = os.Rename(tmp, cfg.StatusFile)
				}
			}
		}()
	}

	if !cfg.Produce {
		<-ctx.Done()
		return nil
	}
	// The producer loop: the round is the node's (ProduceBlockOpts); what
	// is the devnet's own is the trigger — a pool threshold, or a pool
	// that has waited long enough.
	rcfg := p2p.RoundConfig{Quorum: cfg.Quorum, RevealWindow: revealWindow, RevealRetries: revealRetries}
	poolSince := time.Time{} // first time the pool was seen non-empty
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(50 * time.Millisecond):
		}
		pool := mn.MempoolSize()
		switch {
		case pool == 0:
			poolSince = time.Time{}
			continue
		case poolSince.IsZero():
			poolSince = time.Now()
		}
		if pool < minPool && time.Since(poolSince) < maxPoolWait {
			continue
		}
		roundCtx, cancel := context.WithTimeout(ctx, roundTimeout)
		producing.Store(true)
		_, err := mn.ProduceBlockOpts(roundCtx, rcfg)
		producing.Store(false)
		cancel()
		poolSince = time.Time{}
		if err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "devnet miner %s: round: %v\n", cfg.Name, err)
		}
		if spill != nil {
			spill.Forward(mn.Book().TakeRemovals().CarriedRequests)
		}
	}
}

func runParticipant(configPath string) error {
	var cfg ParticipantConfig
	if err := readConfig(configPath, &cfg); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	return runParticipantWith(ctx, cfg)
}

// runParticipantWith is the participant role's body, factored from the
// signal shell so tests can run one in-process under a cancellable
// context.
func runParticipantWith(ctx context.Context, cfg ParticipantConfig) error {
	// SIGUSR1 quiesces: emission stops but the process stays alive
	// answering preamble reveals, so the miners can drain their pools
	// without excluding the leftovers as unrevealed. SIGTERM then exits.
	quiesce := make(chan os.Signal, 1)
	signal.Notify(quiesce, syscall.SIGUSR1)
	defer signal.Stop(quiesce)

	report, err := os.OpenFile(cfg.ReportFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer report.Close()

	lc, err := p2p.NewLoadClient(cfg.Name, "127.0.0.1:0", make([]io.Reader, 1), nil)
	if err != nil {
		return err
	}
	defer lc.Close()
	if cfg.Plan != nil {
		lc.SetFaults(cfg.Plan)
		startPlanClock(ctx, cfg.Plan, cfg.StartTick)
	}
	if err := connectAll(lc.Connect, cfg.Peers); err != nil {
		return err
	}
	if err := writeReady(cfg.ReadyFile, cfg.Name); err != nil {
		return err
	}

	stream := workload.NewStream(cfg.Stream)
	gap := 100 * time.Millisecond
	if cfg.Rate > 0 {
		gap = time.Duration(float64(time.Second) / cfg.Rate)
	}
	tick := time.NewTicker(gap)
	defer tick.Stop()
emit:
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-quiesce:
			break emit
		case <-tick.C:
		}
		so := stream.Next()
		// Seal first, report, and only then broadcast (reportBid).
		var bid *sealed.Bid
		var serr error
		kind := "offer"
		if so.Request != nil {
			kind = "request"
			bid, serr = lc.SealRequest(0, so.Request)
		} else {
			bid, serr = lc.SealOffer(0, so.Offer)
		}
		if serr != nil {
			fmt.Fprintf(os.Stderr, "devnet participant %s: seal: %v\n", cfg.Name, serr)
			continue
		}
		if err := reportBid(report, string(so.ID()), kind, bid); err != nil {
			return fmt.Errorf("devnet participant %s: report: %w", cfg.Name, err)
		}
		if err := lc.Publish(string(so.ID()), bid); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "devnet participant %s: publish: %v\n", cfg.Name, err)
		}
	}
	<-ctx.Done() // keep revealing for in-flight bids until told to stop
	return nil
}
