// Package loadgen is the open-loop load generator for networked DeCloud
// markets. It drives a live market node over real TCP: a deterministic
// arrival schedule (uniform or Poisson) paces order emission from the
// epoch-structured workload stream, a p2p.LoadClient multiplexes
// thousands of sealed-bid identities over one gossip connection, and the
// report folds per-bid submit→commit latencies into percentile summaries
// via internal/obs.
//
// Open loop means the schedule never slows down to match the market's
// service rate: if the system under test falls behind, orders queue and
// later arrivals fire on time (or immediately once overdue), exposing
// real saturation behavior instead of coordinated-omission flattery.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"decloud/internal/obs"
	"decloud/internal/p2p"
	"decloud/internal/workload"
)

// Arrival selects the inter-arrival process of the open-loop schedule.
type Arrival string

const (
	// ArrivalUniform spaces orders exactly 1/Rate apart.
	ArrivalUniform Arrival = "uniform"
	// ArrivalPoisson draws exponential inter-arrival gaps with mean
	// 1/Rate — bursty, memoryless traffic.
	ArrivalPoisson Arrival = "poisson"
)

// DefaultLatencyBounds cover submit→commit latencies from 10 ms to two
// minutes — block production at load-test scale is seconds, not millis.
var DefaultLatencyBounds = []float64{
	0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 15, 20, 30, 45, 60, 90, 120,
}

// Config parameterizes one load run.
type Config struct {
	// Addr is the market node to drive (host:port).
	Addr string
	// Orders is the total number of orders to emit.
	Orders int
	// Rate is the target arrival rate in orders/second. 0 emits as fast
	// as the workers can seal and write.
	Rate float64
	// Arrival selects the inter-arrival process (default uniform).
	Arrival Arrival
	// Workers is the number of concurrent submit workers (default 4).
	// Virtual clients are sharded across workers, so one worker owns
	// each identity's entropy stream.
	Workers int
	// Conns is the number of TCP connections submissions shard over
	// (default 1). Each worker pins connection w%Conns, so at
	// Conns >= Workers no two workers share a socket's write path.
	Conns int
	// Seed makes the schedule and the order stream deterministic.
	Seed int64
	// Stream shapes the emitted orders; its Seed defaults to Seed and
	// its Clients default to Workers (one identity per worker) when
	// unset.
	Stream workload.StreamConfig
	// DrainTimeout bounds the wait for outstanding commits after the
	// last order is emitted (default 90 s).
	DrainTimeout time.Duration
	// LatencyBounds are the histogram bucket bounds in seconds
	// (default DefaultLatencyBounds).
	LatencyBounds []float64
	// Registry optionally receives the latency histogram (and lets a
	// caller scrape it live); nil uses a private registry.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalUniform
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 90 * time.Second
	}
	if len(c.LatencyBounds) == 0 {
		c.LatencyBounds = DefaultLatencyBounds
	}
	if c.Stream.Seed == 0 {
		c.Stream.Seed = c.Seed
	}
	if c.Stream.Clients <= 0 {
		c.Stream.Clients = c.Workers
	}
	return c
}

// Report is the outcome of one load run.
type Report struct {
	Submitted int64 `json:"submitted"`
	Committed int64 `json:"committed"`
	Matched   int64 `json:"matched"`
	Errors    int64 `json:"errors"`
	// EmitSeconds is the wall time of the emission phase; DrainSeconds
	// the extra wait for outstanding commits.
	EmitSeconds  float64 `json:"emit_seconds"`
	DrainSeconds float64 `json:"drain_seconds"`
	// AchievedRate is submitted orders per emission second.
	AchievedRate float64 `json:"achieved_rate"`
	// Latency summarizes submit→commit seconds across committed bids.
	Latency obs.LatencySummary `json:"latency"`
}

// Schedule returns n deterministic arrival offsets from run start,
// non-decreasing. rate 0 yields an all-zero schedule (emit at once).
func Schedule(n int, rate float64, arrival Arrival, seed int64) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	if rate <= 0 {
		return out, nil
	}
	switch arrival {
	case ArrivalUniform, "":
		gap := float64(time.Second) / rate
		for i := range out {
			out[i] = time.Duration(float64(i) * gap)
		}
	case ArrivalPoisson:
		rnd := rand.New(rand.NewSource(seed))
		var t float64
		for i := range out {
			t += rnd.ExpFloat64() / rate * float64(time.Second)
			out[i] = time.Duration(t)
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival process %q", arrival)
	}
	return out, nil
}

// Engine runs one configured load test.
type Engine struct {
	cfg Config
}

// New builds an engine (defaults applied).
func New(cfg Config) *Engine { return &Engine{cfg: cfg.withDefaults()} }

// Run executes the load test: connect, emit on schedule, drain commits,
// report. Cancelling ctx mid-flight stops emission, closes the client,
// and returns the partial report with ctx's error — no goroutine
// survives the call either way.
func (e *Engine) Run(ctx context.Context) (*Report, error) {
	cfg := e.cfg
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lat := reg.Histogram("decloud_loadgen_commit_seconds", "submit→commit latency", cfg.LatencyBounds)

	schedule, err := Schedule(cfg.Orders, cfg.Rate, cfg.Arrival, cfg.Seed)
	if err != nil {
		return nil, err
	}
	lc, err := p2p.NewLoadClientConns("loadgen", "127.0.0.1:0", make([]io.Reader, cfg.Stream.Clients), lat, cfg.Conns)
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	if err := lc.Connect(cfg.Addr); err != nil {
		return nil, err
	}

	stream := workload.NewStream(cfg.Stream)

	// One jobs channel per worker: client c always lands on worker
	// c%Workers, so no identity is ever sealed from two goroutines.
	jobs := make([]chan workload.StreamOrder, cfg.Workers)
	for w := range jobs {
		jobs[w] = make(chan workload.StreamOrder, cfg.Orders/cfg.Workers+1)
	}
	var wg sync.WaitGroup
	var errCount int64
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := w % cfg.Conns // per-worker connection affinity
			for so := range jobs[w] {
				var err error
				if so.Request != nil {
					_, err = lc.SubmitRequestOn(conn, so.Client, so.Request)
				} else {
					_, err = lc.SubmitOfferOn(conn, so.Client, so.Offer)
				}
				if err != nil {
					errMu.Lock()
					errCount++
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}(w)
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	cancelled := false
emit:
	for i := 0; i < cfg.Orders; i++ {
		if wait := schedule[i] - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				cancelled = true
				break emit
			}
		} else if ctx.Err() != nil {
			cancelled = true
			break emit
		}
		so := stream.Next()
		jobs[so.Client%cfg.Workers] <- so
	}
	for _, ch := range jobs {
		close(ch)
	}
	wg.Wait()
	emitElapsed := time.Since(start)

	rep := &Report{EmitSeconds: emitElapsed.Seconds()}
	drainStart := time.Now()
	if !cancelled {
		e.drain(ctx, lc)
	}
	rep.DrainSeconds = time.Since(drainStart).Seconds()
	rep.Submitted, rep.Committed, rep.Matched = lc.Counts()
	errMu.Lock()
	rep.Errors = errCount
	errMu.Unlock()
	if rep.EmitSeconds > 0 {
		rep.AchievedRate = float64(rep.Submitted) / rep.EmitSeconds
	}
	rep.Latency = lat.Snapshot().Summarize()
	if cancelled {
		return rep, ctx.Err()
	}
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return rep, fmt.Errorf("loadgen: %d submissions failed, first: %w", errCount, firstErr)
	}
	return rep, nil
}

// drain waits until every submitted bid is committed, progress stalls
// past DrainTimeout, or ctx is cancelled. The timeout is per-progress:
// each newly committed bid resets it, so a long multi-round run is not
// cut off while blocks are still landing.
func (e *Engine) drain(ctx context.Context, lc *p2p.LoadClient) {
	deadline := time.NewTimer(e.cfg.DrainTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	_, last, _ := lc.Counts()
	for {
		select {
		case <-ctx.Done():
			return
		case <-deadline.C:
			return
		case <-tick.C:
			sub, com, _ := lc.Counts()
			if com >= sub {
				return
			}
			if com > last {
				last = com
				deadline.Reset(e.cfg.DrainTimeout)
			}
		}
	}
}
