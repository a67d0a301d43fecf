// Package devnet orchestrates a multi-process DeCloud network on one
// machine: N miner processes and M participant processes — each a
// re-exec of the current binary (see MaybeRunRole) — wired into a gossip
// mesh, subjected to churn, a partition, and a crash-restart, and
// audited at teardown for chain convergence and order conservation.
//
// Everything a child needs travels in a JSON config file; everything the
// auditor needs comes back as files (chain replicas, participant
// reports), so a SIGKILL loses no evidence. The orchestrator never
// shares memory with the nodes it tests — the network under test is real
// processes exchanging real TCP traffic.
package devnet

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"decloud/internal/chaos"
	"decloud/internal/metro"
	"decloud/internal/workload"
)

// Topology configures a devnet run.
type Topology struct {
	// Miners (first one produces) and Participants are process counts.
	// With Metros ≥ 2, Miners is the PER-METRO miner count: each metro
	// exchange runs its own gossip mesh of Miners processes (the first
	// produces), participants round-robin over metros and submit only to
	// their home exchange, and producers forward carry-out requests to
	// neighbor metros' producers over dedicated relay links.
	Miners       int
	Participants int
	// Metros federates the devnet over this many independent exchanges
	// (0/1 = the classic single market). Implies Incremental — spill
	// detection reads book carry-outs.
	Metros int
	// MaxHops bounds a spilled request's exchange visits beyond its home
	// (default metro.DefaultMaxHops). Hop k of request "r" travels as
	// "r~x<k>".
	MaxHops int
	// Dir receives configs, logs, ready files, chain replicas, and
	// participant reports.
	Dir string
	// Seed derives the fault plan and every participant's order stream.
	Seed int64
	// Rate paces each participant, orders/second (default 10).
	Rate float64
	// Soak is how long faults and churn run before healing (default 8s).
	Soak time.Duration
	// Churn kills one participant mid-soak and respawns a replacement.
	Churn bool
	// Partition opens an origin-based cut through mid-soak.
	Partition bool
	// CrashRestart SIGKILLs one verifier miner mid-soak and respawns it
	// (empty chain; it must catch up over the sync protocol).
	CrashRestart bool
	// Incremental switches every miner to the continuous order book:
	// unmatched orders carry across blocks instead of expiring with
	// their round. Conservation auditing accounts for carried matches.
	Incremental bool
	// ConvergeTimeout bounds the post-soak wait for identical chains
	// (default 60s).
	ConvergeTimeout time.Duration
}

const (
	// epochOrders shapes each participant's stream: small epochs keep both
	// sides of the market in every round, so short runs still clear trades.
	epochOrders = 16
	difficulty  = 8   // the miners' PoW difficulty
	minPool     = 16  // bids a producer batches per round
	tickMS      = 100 // the fault plan's logical clock granularity
	// maxPoolWait runs a round over a non-empty pool below minPool, so a
	// trickle of leftovers still drains at teardown.
	maxPoolWait = 1500 * time.Millisecond
	// Reveal windows sum to 0.8×(1+2+4) = 5.6 s — comfortably inside the
	// 12 s round timeout, so a round with permanently lost reveals
	// completes with exclusions instead of dying on ctx.
	revealWindow  = 800 * time.Millisecond
	revealRetries = 2
)

func (t Topology) withDefaults() (Topology, error) {
	if t.Miners < 1 || t.Participants < 1 {
		return t, fmt.Errorf("devnet: need at least 1 miner and 1 participant")
	}
	t.Metros = max(t.Metros, 1) // a flat devnet is one metro
	if t.Metros > 1 {
		t.Incremental = true // an exchange that cannot carry cannot spill
		if t.Participants < t.Metros {
			return t, fmt.Errorf("devnet: need at least one participant per metro (%d < %d)", t.Participants, t.Metros)
		}
		if t.MaxHops <= 0 {
			t.MaxHops = metro.DefaultMaxHops
		}
	}
	if t.Dir == "" {
		return t, fmt.Errorf("devnet: Dir is required")
	}
	if t.Rate <= 0 {
		t.Rate = 10
	}
	if t.Soak <= 0 {
		t.Soak = 8 * time.Second
	}
	if t.ConvergeTimeout <= 0 {
		t.ConvergeTimeout = 60 * time.Second
	}
	return t, nil
}

// federated reports whether this topology runs multiple metro exchanges.
func (t Topology) federated() bool { return t.Metros > 1 }

// totalMiners is the overall miner process count: Miners is per metro.
func (t Topology) totalMiners() int { return t.Miners * t.Metros }

// metroOfParticipant maps a participant slot onto its home exchange.
func (t Topology) metroOfParticipant(slot int) int { return slot % t.Metros }

// proc is one child process and its artifact paths.
type proc struct {
	name    string
	role    string
	cfgPath string
	ready   string
	log     *os.File
	cmd     *exec.Cmd
}

// Cluster is a running devnet.
type Cluster struct {
	top    Topology
	start  time.Time
	plan   *chaos.Plan
	miners []*proc
	parts  []*proc
	// reports accumulates every participant report path ever spawned —
	// churned-away and stopped processes stay in the submitted-set.
	reports    []string
	minerAddrs []string
	churnSeq   int
}

// Logf is swappable output for orchestrator progress (default: discard).
var Logf = func(format string, args ...any) {}

// tick converts a wall duration from cluster start into plan ticks.
func (c *Cluster) tick(d time.Duration) int64 {
	return int64(d / (tickMS * time.Millisecond))
}

func (c *Cluster) elapsedTick() int64 {
	return c.tick(time.Since(c.start))
}

// buildPlan derives the run's fault plan: light message chaos for the
// whole soak plus (optionally) one partition window through the middle
// third of the soak. Groups split miners AND participants so the cut
// severs endpoints, not just links.
func buildPlan(top Topology, minerNames, partNames []string) *chaos.Plan {
	plan := &chaos.Plan{
		Seed: top.Seed,
		Probs: chaos.Probs{
			Drop:          0.02,
			Delay:         0.10,
			Dup:           0.05,
			MaxDelaySteps: 3,
		},
		// Exempt votes and the catch-up protocol from background faults:
		// a single lost vote stalls the producer for a whole round
		// timeout, which starves the run without testing anything the
		// partition windows (which DO sever these messages) don't already
		// cover harder.
		TypeProbs: map[string]chaos.Probs{
			"vote":    {},
			"syncreq": {},
			"chain":   {},
		},
		Step: 10 * time.Millisecond,
	}
	if top.Partition {
		const tickLen = tickMS * time.Millisecond
		from := int64(top.Soak / 3 / tickLen)
		until := int64(top.Soak * 2 / 3 / tickLen)
		var groupA, groupB []string
		if top.federated() {
			// Federated cut: isolate the LAST metro wholesale — its own
			// mesh stays internally intact (per-metro convergence is not
			// the thing under test here), but every inter-metro spill link
			// into or out of it severs. Spills forwarded during the window
			// drop on the wire and stay audited as uncommitted. Each
			// producer's relay clients ("<producer>x<k>") side with their
			// producer so the cut catches the spill traffic itself.
			K, M := top.Miners, top.Metros
			cut := (M - 1) * K
			groupA = append(groupA, minerNames[:cut]...)
			groupB = append(groupB, minerNames[cut:]...)
			for m := 0; m < M; m++ {
				for k := 0; k < M; k++ {
					if k == m {
						continue
					}
					rel := fmt.Sprintf("%sx%d", minerNames[m*K], k)
					if m == M-1 {
						groupB = append(groupB, rel)
					} else {
						groupA = append(groupA, rel)
					}
				}
			}
			for i, pn := range partNames {
				if top.metroOfParticipant(i) == M-1 {
					groupB = append(groupB, pn)
				} else {
					groupA = append(groupA, pn)
				}
			}
		} else {
			// Producer side keeps a quorum of verifiers; the far side keeps
			// at least one miner so its participants' gossip has somewhere
			// to go.
			cutM := len(minerNames) - 1
			cutP := len(partNames) / 2
			groupA = append(append([]string{}, minerNames[:cutM]...), partNames[:cutP]...)
			groupB = append(append([]string{}, minerNames[cutM:]...), partNames[cutP:]...)
		}
		plan.Partitions = []chaos.Partition{{
			Window: chaos.Window{From: from, Until: until},
			GroupA: groupA,
			GroupB: groupB,
		}}
	}
	return plan
}

// Launch starts the cluster: miners first (meshed in spawn order), then
// participants (dialing every miner).
func Launch(ctx context.Context, top Topology) (*Cluster, error) {
	top, err := top.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(top.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cluster{top: top, start: time.Now()}

	minerNames := make([]string, top.totalMiners())
	for i := range minerNames {
		minerNames[i] = fmt.Sprintf("m%d", i)
	}
	partNames := make([]string, top.Participants)
	for i := range partNames {
		partNames[i] = fmt.Sprintf("p%d", i)
	}
	c.plan = buildPlan(top, minerNames, partNames)

	for i := 0; i < top.totalMiners(); i++ {
		p, err := c.spawnMiner(ctx, i)
		if err != nil {
			c.Kill()
			return nil, err
		}
		c.miners = append(c.miners, p)
		addr, err := c.awaitReady(ctx, p)
		if err != nil {
			c.Kill()
			return nil, err
		}
		c.minerAddrs = append(c.minerAddrs, addr)
		Logf("devnet: miner %s up at %s", p.name, addr)
	}
	for i := 0; i < top.Participants; i++ {
		p, err := c.spawnParticipant(ctx, fmt.Sprintf("p%d", i), int64(i), top.metroOfParticipant(i))
		if err != nil {
			c.Kill()
			return nil, err
		}
		c.parts = append(c.parts, p)
		if _, err := c.awaitReady(ctx, p); err != nil {
			c.Kill()
			return nil, err
		}
		Logf("devnet: participant %s up", p.name)
	}
	return c, nil
}

func (c *Cluster) minerConfig(i int) MinerConfig {
	name := fmt.Sprintf("m%d", i)
	// Flat topology: one mesh, miner i peers with every earlier miner and
	// only m0 produces. Federated: each metro is its own mesh — miner i
	// lives in metro i/Miners, peers only with earlier SAME-metro miners,
	// and the first miner of each metro produces. Producers additionally
	// get the spill-forwarding config: their neighbors' ready files in
	// latency-preference order, a crash-safe relay report, and the hop
	// budget.
	peerLo := 0
	produce := i == 0
	if c.top.federated() {
		peerLo = (i / c.top.Miners) * c.top.Miners
		produce = i%c.top.Miners == 0
	}
	peerHi := min(i, len(c.minerAddrs))
	var peers []string
	if peerLo < peerHi {
		peers = append(peers, c.minerAddrs[peerLo:peerHi]...)
	}
	cfg := MinerConfig{
		Name:        name,
		Listen:      "127.0.0.1:0",
		Peers:       peers,
		Produce:     produce,
		Quorum:      min(c.top.Miners-1, 1), // one OK vote, when there is a verifier to give it
		Incremental: c.top.Incremental,
		ChainFile:   filepath.Join(c.top.Dir, name+".chain"),
		ReadyFile:   filepath.Join(c.top.Dir, name+".ready"),
		StatusFile:  filepath.Join(c.top.Dir, name+".status"),
		Plan:        c.plan,
		StartTick:   c.elapsedTick(),
	}
	if c.top.federated() {
		m := i / c.top.Miners
		cfg.Metro = m
		if produce {
			cfg.MaxHops = c.top.MaxHops
			cfg.SpillReport = filepath.Join(c.top.Dir, name+".spill")
			cfg.SpillPeerReady = make(map[int]string)
			for n := 0; n < c.top.Metros; n++ {
				if n != m {
					cfg.SpillPeerReady[n] = filepath.Join(c.top.Dir, fmt.Sprintf("m%d.ready", n*c.top.Miners))
				}
			}
		}
	}
	return cfg
}

func (c *Cluster) spawnMiner(ctx context.Context, i int) (*proc, error) {
	cfg := c.minerConfig(i)
	return c.spawn(ctx, "miner", cfg.Name, cfg.ReadyFile, cfg)
}

func (c *Cluster) participantConfig(name string, streamSeed int64, m int) ParticipantConfig {
	peers := append([]string{}, c.minerAddrs...)
	stream := workload.StreamConfig{
		Seed:        c.top.Seed ^ (streamSeed+1)*0x9e3779b9,
		Clients:     1,
		EpochOrders: epochOrders,
		EpochSec:    600,
		IDPrefix:    name,
	}
	if c.top.federated() {
		// Home exchange only: the participant gossips with its own
		// metro's mesh, and its one virtual client's home location is
		// steered (one-hot mix) into that metro's cell so homing is
		// consistent with where the orders actually land.
		K := c.top.Miners
		peers = append([]string{}, c.minerAddrs[m*K:(m+1)*K]...)
		stream.GeoRadius = 0.5
		stream.GeoMetros = c.top.Metros
		mix := make([]float64, c.top.Metros)
		mix[m] = 1
		stream.GeoMix = mix
	}
	return ParticipantConfig{
		Name:       name,
		Peers:      peers,
		Stream:     stream,
		Rate:       c.top.Rate,
		ReportFile: filepath.Join(c.top.Dir, name+".report"),
		ReadyFile:  filepath.Join(c.top.Dir, name+".ready"),
		Plan:       c.plan,
		StartTick:  c.elapsedTick(),
	}
}

func (c *Cluster) spawnParticipant(ctx context.Context, name string, streamSeed int64, m int) (*proc, error) {
	cfg := c.participantConfig(name, streamSeed, m)
	c.reports = append(c.reports, cfg.ReportFile)
	return c.spawn(ctx, "participant", cfg.Name, cfg.ReadyFile, cfg)
}

func (c *Cluster) spawn(ctx context.Context, role, name, readyFile string, cfg any) (*proc, error) {
	_ = os.Remove(readyFile)
	cfgPath := filepath.Join(c.top.Dir, name+"."+role+".json")
	if err := writeJSON(cfgPath, cfg); err != nil {
		return nil, err
	}
	logPath := filepath.Join(c.top.Dir, name+".log")
	logF, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	bin, err := os.Executable() // every child is this binary under a role
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin)
	cmd.Env = append(os.Environ(),
		RoleEnv+"="+role,
		ConfigEnv+"="+cfgPath,
	)
	cmd.Stdout = logF
	cmd.Stderr = logF
	cmd.WaitDelay = 10 * time.Second
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	if err := cmd.Start(); err != nil {
		logF.Close()
		return nil, fmt.Errorf("devnet: spawn %s %s: %w", role, name, err)
	}
	return &proc{name: name, role: role, cfgPath: cfgPath, ready: readyFile, log: logF, cmd: cmd}, nil
}

func (c *Cluster) awaitReady(ctx context.Context, p *proc) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(p.ready); err == nil && len(data) > 0 {
			return string(data[:len(data)-1]), nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("devnet: %s %s not ready after 30s (see %s)", p.role, p.name, p.log.Name())
		}
		if p.cmd.ProcessState != nil {
			return "", fmt.Errorf("devnet: %s %s exited before ready", p.role, p.name)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ChurnParticipant SIGKILLs participant index i and spawns a fresh
// replacement with a new identity and stream. The dead process's report
// file stays in the audit's submitted-set.
func (c *Cluster) ChurnParticipant(ctx context.Context, i int) error {
	if i < 0 || i >= len(c.parts) {
		return fmt.Errorf("devnet: no participant %d", i)
	}
	old := c.parts[i]
	_ = old.cmd.Process.Kill()
	_ = old.cmd.Wait()
	old.log.Close()
	Logf("devnet: churned participant %s", old.name)

	c.churnSeq++
	name := fmt.Sprintf("pc%d", c.churnSeq)
	// The replacement serves the dead participant's metro (flat: 0).
	p, err := c.spawnParticipant(ctx, name, int64(100+c.churnSeq), c.top.metroOfParticipant(i))
	if err != nil {
		return err
	}
	c.parts[i] = p
	if _, err := c.awaitReady(ctx, p); err != nil {
		return err
	}
	Logf("devnet: replacement participant %s up", name)
	return nil
}

// CrashRestartMiner SIGKILLs miner index i (never a producer) and
// respawns it with the same name and an empty chain — it must resync
// from its peers through the sync protocol.
func (c *Cluster) CrashRestartMiner(ctx context.Context, i int, downFor time.Duration) error {
	if i <= 0 || i >= len(c.miners) || i%c.top.Miners == 0 {
		return fmt.Errorf("devnet: cannot crash-restart miner %d", i)
	}
	old := c.miners[i]
	_ = old.cmd.Process.Kill()
	_ = old.cmd.Wait()
	old.log.Close()
	Logf("devnet: crashed miner %s", old.name)
	select {
	case <-time.After(downFor):
	case <-ctx.Done():
		return ctx.Err()
	}
	// Fresh chain: the replica must come back over the wire.
	_ = os.Remove(filepath.Join(c.top.Dir, old.name+".chain"))
	p, err := c.spawnMiner(ctx, i)
	if err != nil {
		return err
	}
	c.miners[i] = p
	addr, err := c.awaitReady(ctx, p)
	if err != nil {
		return err
	}
	c.minerAddrs[i] = addr
	Logf("devnet: miner %s restarted at %s", p.name, addr)
	return nil
}

// ChainFiles returns each live miner's chain replica path.
func (c *Cluster) ChainFiles() []string {
	out := make([]string, len(c.miners))
	for i, p := range c.miners {
		out[i] = filepath.Join(c.top.Dir, p.name+".chain")
	}
	return out
}

// ReportFiles returns every participant report ever spawned, including
// churned-away and already-stopped processes.
func (c *Cluster) ReportFiles() []string {
	return append([]string{}, c.reports...)
}

// SpillReportFiles returns each producer's relay report path — the
// crash-safe record of every cross-metro forwarding. Empty when flat.
func (c *Cluster) SpillReportFiles() []string {
	if !c.top.federated() {
		return nil
	}
	out := make([]string, 0, c.top.Metros)
	for m := 0; m < c.top.Metros; m++ {
		out = append(out, filepath.Join(c.top.Dir, fmt.Sprintf("m%d.spill", m*c.top.Miners)))
	}
	return out
}

// chainGroups partitions the chain replica paths by consensus domain:
// one group for a flat devnet, one group per metro when federated —
// replicas converge within a group, never across groups (each metro is
// its own chain).
func (c *Cluster) chainGroups() [][]string {
	K := c.top.Miners
	out := make([][]string, c.top.Metros)
	for m := range out {
		for i := m * K; i < (m+1)*K; i++ {
			out[m] = append(out[m], filepath.Join(c.top.Dir, c.miners[i].name+".chain"))
		}
	}
	return out
}

// AwaitConvergence polls the miners' chain files until every replica is
// byte-identical at height ≥ minHeight — within each metro, when
// federated — or the topology's converge timeout lapses.
func (c *Cluster) AwaitConvergence(ctx context.Context, minHeight int) error {
	deadline := time.Now().Add(c.top.ConvergeTimeout)
	var lastErr error
	for time.Now().Before(deadline) && ctx.Err() == nil {
		ok := true
		for m, group := range c.chainGroups() {
			res, err := CheckConvergence(group, minHeight)
			if err != nil {
				lastErr = fmt.Errorf("chain group %d: %w", m, err)
				ok = false
				break
			}
			if ok && m == len(c.chainGroups())-1 {
				Logf("devnet: converged at height %d (%s)", res.Height, res.HeadHash[:12])
			}
		}
		if ok {
			return nil
		}
		time.Sleep(250 * time.Millisecond)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("devnet: no convergence within %s: %w", c.top.ConvergeTimeout, lastErr)
}

// QuiesceParticipants SIGUSR1s all participants: they stop emitting new
// orders but stay alive answering reveals, so the miners can drain their
// pools without excluding the stragglers.
func (c *Cluster) QuiesceParticipants() {
	for _, p := range c.parts {
		_ = p.cmd.Process.Signal(syscall.SIGUSR1)
	}
}

// StopParticipants SIGTERMs all participants and waits for exit.
func (c *Cluster) StopParticipants() {
	for _, p := range c.parts {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range c.parts {
		_ = p.cmd.Wait()
		p.log.Close()
	}
	c.parts = nil
}

// StopMiners SIGTERMs all miners and waits for exit (each saves its
// chain on the way out).
func (c *Cluster) StopMiners() {
	for _, p := range c.miners {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range c.miners {
		_ = p.cmd.Wait()
		p.log.Close()
	}
}

// Kill force-stops everything (cleanup path).
func (c *Cluster) Kill() {
	for _, p := range append(append([]*proc{}, c.parts...), c.miners...) {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
		}
		if p.log != nil {
			p.log.Close()
		}
	}
}

// Summary is the outcome of a full scenario run. Flat runs fill the
// first two fields; federated runs additionally carry per-metro results
// (Convergence/Conservation then alias metro 0 for compatibility) and
// the cross-metro settlement audit.
type Summary struct {
	Convergence  *ConvergenceResult
	Conservation *ConservationResult
	// MetroConvergence and MetroConservation are indexed by metro.
	MetroConvergence  []*ConvergenceResult
	MetroConservation []*ConservationResult
	// CrossMetro is the federated settlement audit: every spilled
	// request's root settles on at most one metro chain, once.
	CrossMetro *FederatedSettlementResult
}

// Run executes the whole scenario: launch, soak with faults, heal,
// converge, stop, audit. It is the one-call form used by the soak test
// and cmd/decloud-devnet.
func Run(ctx context.Context, top Topology) (*Summary, error) {
	c, err := Launch(ctx, top)
	if err != nil {
		return nil, err
	}
	defer c.Kill()
	top = c.top // defaults applied

	// Soak phase: churn at 1/4, crash at 1/2 (partition window, if any,
	// spans the middle third via the plan).
	soakEnd := time.After(top.Soak)
	if top.Churn {
		select {
		case <-time.After(top.Soak / 4):
			if err := c.ChurnParticipant(ctx, len(c.parts)/2); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if top.CrashRestart && top.Miners > 1 {
		// Miners-1 is the last verifier of metro 0 (flat: the last miner)
		// — never a producer, in either topology.
		select {
		case <-time.After(top.Soak / 4):
			if err := c.CrashRestartMiner(ctx, top.Miners-1, top.Soak/8); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	select {
	case <-soakEnd:
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	// Healing phase: all fault windows are behind us (the partition
	// closes at 2/3 of soak); participants keep feeding rounds so every
	// replica — including the restarted miner — hears new blocks and
	// resyncs. Require some chain growth first.
	if err := c.AwaitConvergence(ctx, 1); err != nil {
		return nil, err
	}

	// Quiesce: emission stops, but participants stay up answering
	// reveals while the producer drains its pool — leftovers land in
	// blocks fully decoded instead of excluded as unrevealed. Only once
	// the chains are identical and stably at rest do the processes exit.
	c.QuiesceParticipants()
	if err := c.AwaitStableConvergence(ctx); err != nil {
		return nil, err
	}
	c.StopParticipants()
	c.StopMiners()

	if top.federated() {
		return c.auditFederated()
	}
	conv, err := CheckConvergence(c.ChainFiles(), 1)
	if err != nil {
		return nil, fmt.Errorf("devnet: post-stop convergence: %w", err)
	}
	cons, err := CheckConservation(c.ChainFiles()[0], c.ReportFiles())
	if err != nil {
		return nil, err
	}
	return &Summary{Convergence: conv, Conservation: cons}, nil
}

// auditFederated runs the post-stop audits of a federated devnet:
// per-metro convergence, per-metro conservation against the union of
// every participant report AND every producer's spill report (relayed
// bids are submissions on the target chain; the conservation equation
// holds for any superset submitted-set, so the union serves every
// metro), and the cross-metro settlement audit over all metro chains.
func (c *Cluster) auditFederated() (*Summary, error) {
	sum := &Summary{}
	reports := append(c.ReportFiles(), c.SpillReportFiles()...)
	heads := make([]string, 0, c.top.Metros)
	for m, group := range c.chainGroups() {
		conv, err := CheckConvergence(group, 1)
		if err != nil {
			return nil, fmt.Errorf("devnet: metro %d post-stop convergence: %w", m, err)
		}
		cons, err := CheckConservation(group[0], reports)
		if err != nil {
			return nil, fmt.Errorf("devnet: metro %d: %w", m, err)
		}
		sum.MetroConvergence = append(sum.MetroConvergence, conv)
		sum.MetroConservation = append(sum.MetroConservation, cons)
		heads = append(heads, group[0])
	}
	fed, err := CheckFederatedSettlement(heads)
	if err != nil {
		return nil, err
	}
	sum.CrossMetro = fed
	sum.Convergence = sum.MetroConvergence[0]
	sum.Conservation = sum.MetroConservation[0]
	return sum, nil
}

// AwaitStableConvergence waits until the replicas are identical, the
// producer's mempool is empty (nothing left to drain — read from its
// status file), AND the head held still across two consecutive
// observations 2 s apart. A round that is mid-flight when this returns
// has already appended and broadcast its block (votes come after), so a
// stable head with an empty pool really is the final state.
func (c *Cluster) AwaitStableConvergence(ctx context.Context) error {
	deadline := time.Now().Add(c.top.ConvergeTimeout)
	groups := c.chainGroups()
	prev := make([]string, len(groups))
	for time.Now().Before(deadline) && ctx.Err() == nil {
		stable := true
		heads := make([]string, len(groups))
		for m, group := range groups {
			res, err := CheckConvergence(group, 1)
			if err != nil {
				stable = false
				continue
			}
			heads[m] = res.HeadHash
			if res.HeadHash != prev[m] {
				stable = false
			}
		}
		if stable && c.producersDrained() {
			return nil
		}
		prev = heads
		time.Sleep(2 * time.Second)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("devnet: chains never stabilized within %s", c.top.ConvergeTimeout)
}

// producersDrained reports whether every producer's status file shows an
// empty mempool with no round in flight. Federated runs must drain ALL
// producers: a spill forwarded just before quiesce may still sit in a
// neighbor's pool.
func (c *Cluster) producersDrained() bool {
	for i := 0; i < len(c.miners); i += c.top.Miners {
		if !producerDrained(filepath.Join(c.top.Dir, c.miners[i].name+".status")) {
			return false
		}
	}
	return true
}

func producerDrained(statusFile string) bool {
	data, err := os.ReadFile(statusFile)
	if err != nil {
		return false
	}
	var st MinerStatus
	if json.Unmarshal(data, &st) != nil {
		return false
	}
	return st.Pool == 0 && !st.InFlight
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
