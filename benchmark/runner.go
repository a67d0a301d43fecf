package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"decloud/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Times  int    `json:"times"` // how often it was evaluated
	Detail string `json:"detail,omitempty"`
}

// runEnv records what the run had to work with (starved-runner guard).
type runEnv struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentEnv() runEnv {
	return runEnv{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// params selects one run.
type params struct {
	Seed    int64
	Seconds float64 // how long the timed rounds run
	Scale   float64 // multiplies every workload size (tests use 0.05)
	Traced  bool
	Setups  int    // how often set-up is repeated for the setup_s median
	OutDir  string // where the span file goes
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Scale       float64           `json:"scale"`
	Traced      bool              `json:"traced"`
	Env         runEnv            `json:"env"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
	Samples     map[string]int    `json:"samples"`
	Checks      []check           `json:"checks"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Invalid     string            `json:"invalid,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Params      map[string]any    `json:"params"`
	TraceFile   string            `json:"trace_file,omitempty"`
	WallS       float64           `json:"wall_s"`

	budget string // rendered per-layer budget (traced runs)
}

// ok reports whether the run is correct and valid.
func (r *runResult) ok() bool {
	if r.Invalid != "" {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// check records one evaluation of a named check. A check evaluated many
// times (once per block, say) is listed once: it passes if every
// evaluation passed, and keeps the detail of its first failure.
func (r *runResult) check(name string, ok bool, format string, args ...any) {
	for i := range r.Checks {
		c := &r.Checks[i]
		if c.Name != name {
			continue
		}
		c.Times++
		if c.OK && !ok {
			c.OK, c.Detail = false, fmt.Sprintf(format, args...)
		}
		return
	}
	c := check{Name: name, OK: ok, Times: 1}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// invalidate marks the run as not measuring what it claims to (starved
// runner, drain or reveal timeout). The first reason is kept.
func (r *runResult) invalidate(format string, args ...any) {
	if r.Invalid == "" {
		r.Invalid = fmt.Sprintf(format, args...)
	}
}

// scenario is one benchmark workload (the name "workload" belongs to
// the internal/workload package). The runner drives it through
// setup → run → finish → close; setup may be called on several
// instances (only the last one is run) so that setup_s is a median.
type scenario interface {
	// setup does everything before the first timed round: generate the
	// market, create identities, start and connect nodes, warm up.
	setup() error
	// run executes timed rounds for about d (at least two rounds). With
	// a recorder, odd rounds are traced and even rounds are not.
	run(d time.Duration, rec *recorder) error
	// finish runs the correctness checks and, with a recorder, the block
	// autopsy that fills the function-level per-layer metrics.
	finish(rec *recorder, res *runResult)
	// close stops everything setup started and waits for it.
	close()
	// stats exposes the end-to-end and per-layer accumulators.
	stats() (*tally, *layerStats)
}

// tally accumulates what the end-to-end metrics are computed from.
type tally struct {
	limit     float64       // the workload's latency limit, seconds
	cycle     int           // closed rounds per repeating cycle of work (book_churn's epoch); 0 = every round does like work
	roundS    [2]samples    // wall seconds per committed round: [0] untraced, [1] traced
	closed    []closedRound // the rounds of a closed-loop workload, in the order they ran
	latency   samples       // per-order due→commit seconds, exact samples
	attempted int           // orders the generator tried to submit
	committed int           // orders observed committed
	within    int           // committed within the latency limit
	requests  int           // requests among the attempted orders
	matched   int           // requests matched by a committed allocation
	timedWall float64       // seconds of timed work the committed orders took
	allocated uint64        // bytes allocated during the timed rounds
	order     fingerprint
}

// commit records n orders committed with the same due→commit latency.
func (t *tally) commit(latency float64, n int) {
	t.latency.addN(latency, n)
	t.committed += n
	if latency <= t.limit {
		t.within += n
	}
}

func (t *tally) rounds() int { return t.roundS[0].count() + t.roundS[1].count() }

// closedRound is one committed round of a closed-loop workload: all its
// orders are due when it starts and commit together.
type closedRound struct {
	took    float64 // wall seconds of the whole round
	latency float64 // seconds each of its orders waited, round start → commit
	orders  int
	traced  int
}

// closedRound records a committed round of a closed-loop workload.
func (t *tally) closedRound(traced int, took, latency float64, orders int) {
	t.roundS[traced].add(took)
	t.timedWall += took
	t.commit(latency, orders)
	t.closed = append(t.closed, closedRound{took, latency, orders, traced})
}

// timings are the three timing metrics of a set of rounds.
type timings struct {
	roundS, ordersPerS, commitP50 float64
	rounds                        int // rounds they were taken from
}

// quietTimings takes the timings of closed rounds from the quiet ones
// among them (quietRounds in stats.go): the mean round, the orders per
// second of round time, and the exact p50 of what the orders waited.
func (t *tally) quietTimings(rounds []closedRound) timings {
	took := make([]float64, len(rounds))
	for i, r := range rounds {
		took[i] = r.took
	}
	cycle := t.cycle
	if cycle < 1 {
		cycle = 1
	}
	kept := quietRounds(took, cycle)
	var sum float64
	var orders int
	var waited samples
	for _, i := range kept {
		sum += rounds[i].took
		orders += rounds[i].orders
		waited.addN(rounds[i].latency, rounds[i].orders)
	}
	return timings{sum / float64(len(kept)), float64(orders) / sum, waited.percentile(0.50), len(kept)}
}

// allocMeter measures bytes allocated across a timed section.
type allocMeter struct{ before uint64 }

func (m *allocMeter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.before = ms.TotalAlloc
}

func (m *allocMeter) stop() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - m.before
}

// fingerprint hashes the identity of a run's inputs: every order ID with
// its sealed-bid digest (or a zero digest where nothing is sealed). Two
// runs with the same (workload, seed) must agree on it; the order of
// add calls does not matter, so concurrent submit workers can feed it.
type fingerprint struct {
	entries []fpEntry
}

type fpEntry struct {
	id     string
	digest [32]byte
}

func (f *fingerprint) add(id string, digest [32]byte) {
	f.entries = append(f.entries, fpEntry{id, digest})
}

func (f *fingerprint) sum() string {
	sort.Slice(f.entries, func(i, j int) bool {
		if f.entries[i].id != f.entries[j].id {
			return f.entries[i].id < f.entries[j].id
		}
		return string(f.entries[i].digest[:]) < string(f.entries[j].digest[:])
	})
	h := sha256.New()
	for _, e := range f.entries {
		io.WriteString(h, e.id)
		h.Write([]byte{0})
		h.Write(e.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// entropy returns the seeded reader identity i of a workload draws its
// keys, temporary keys and envelope nonces from.
func entropy(seed int64, label string, i int) io.Reader {
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], uint64(seed))
	return stats.SubRand(sb[:], fmt.Sprintf("benchmark/%s/%d", label, i))
}

// scaled applies the -scale factor to a workload size, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// runWorkload performs one run: repeated set-up, the timed rounds, the
// checks, and the metrics.
func runWorkload(name string, p params) (*runResult, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	began := time.Now()
	res := &runResult{
		Workload: name, Seed: p.Seed, Seconds: p.Seconds, Scale: p.Scale, Traced: p.Traced,
		Env:      currentEnv(),
		EndToEnd: make(map[string]metric),
		Samples:  make(map[string]int),
		Params:   make(map[string]any),
	}

	// Set-up runs several times and the median is reported, because one
	// set-up is a single sample; a traced run reports no setup_s and
	// sets up once.
	setups := p.Setups
	if p.Traced || setups < 1 {
		setups = 1
	}
	var setupS samples
	var w scenario
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		w = mk(p, res)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setupS.add(time.Since(t0).Seconds())
	}
	defer w.close()

	var rec *recorder
	if p.Traced {
		rec = newRecorder()
	}
	if err := w.run(time.Duration(p.Seconds*float64(time.Second)), rec); err != nil {
		return nil, fmt.Errorf("%s: run: %w", name, err)
	}
	rec.setEnabled(p.Traced) // the autopsy is traced as a whole

	w.finish(rec, res)
	t, layer := w.stats()

	res.Params["latency_limit_s"] = t.limit
	res.Attempted = t.attempted
	res.Failed = t.attempted - t.committed
	res.Fingerprint = t.order.sum()
	res.check("committed_equals_submitted", t.committed == t.attempted,
		"committed %d of %d attempted", t.committed, t.attempted)

	all := samples{}
	all.vals = append(append(all.vals, t.roundS[0].vals...), t.roundS[1].vals...)
	tm := timings{all.median(), float64(t.committed) / t.timedWall, t.latency.percentile(0.50), all.count()}
	if len(t.closed) > 0 {
		tm = t.quietTimings(t.closed)
		res.Samples["quiet_rounds"] = tm.rounds
	}
	e := res.EndToEnd
	e["setup_s"] = metric{setupS.median(), "s"}
	e["round_s"] = metric{tm.roundS, "s"}
	e["orders_per_s"] = metric{tm.ordersPerS, "1/s"}
	e["commit_p50_s"] = metric{tm.commitP50, "s"}
	e["commit_p99_s"] = metric{t.latency.percentile(0.99), "s"}
	e["within_limit_frac"] = metric{float64(t.within) / float64(t.attempted), "ratio"}
	e["failed_frac"] = metric{1 - float64(t.committed)/float64(t.attempted), "ratio"}
	e["matched_frac"] = metric{float64(t.matched) / float64(t.requests), "ratio"}
	e["alloc_mb_per_round"] = metric{float64(t.allocated) / 1e6 / float64(t.rounds()), "MB"}
	res.Samples["setup_s"] = setupS.count()
	res.Samples["round_s"] = all.count()
	res.Samples["commit_p50_s"] = t.latency.count()
	res.Samples["commit_p99_s"] = t.latency.count()
	res.Samples["commit_beyond_p99"] = t.latency.beyond(0.99)
	res.check("p99_has_ten_samples_beyond", t.latency.beyond(0.99) >= 10 || p.Scale < 1,
		"%d samples beyond p99 of %d", t.latency.beyond(0.99), t.latency.count())
	for k, m := range e {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.check("metric_"+k+"_is_a_number", false, "%v", m.Value)
		}
	}

	if p.Traced {
		// Traced and untraced rounds alternate inside the one run, so both
		// sides come from the same process, heap and machine state.
		if t.roundS[0].count() > 0 && t.roundS[1].count() > 0 {
			un, tr := t.roundS[0].median(), t.roundS[1].median()
			if len(t.closed) > 0 {
				var side [2][]closedRound
				for _, r := range t.closed {
					side[r.traced] = append(side[r.traced], r)
				}
				un, tr = t.quietTimings(side[0]).roundS, t.quietTimings(side[1]).roundS
			}
			layer.set("trace.overhead_frac", (tr-un)/un)
		}
		for k := range ungated {
			layer.set(k, e[k].Value)
		}
		res.PerLayer = layer.metrics()
		path, err := rec.write(p.OutDir, name)
		if err != nil {
			return nil, fmt.Errorf("%s: write spans: %w", name, err)
		}
		res.TraceFile = path
		res.budget = renderBudget(rec, name)
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}
