package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program. Name is "<layer>.<call>"; Parent is the span that caused it
// (-1 for a root); Round groups the spans of one committed round.
//
// A per-order call (seal, publish, insert …) would produce tens of
// thousands of spans per round, so those are folded: one span per lane
// (worker goroutine) per round carries Count calls and their summed
// BusyNs. Lanes is how many such spans ran side by side under the same
// parent; a folded span covers BusyNs/Lanes of its parent's interval.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int    `json:"count,omitempty"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
	Lanes   int    `json:"lanes,omitempty"`
}

// cover is the part of the parent's interval this span accounts for.
func (s *span) cover() int64 {
	if s.Count > 0 {
		lanes := s.Lanes
		if lanes < 1 {
			lanes = 1
		}
		return s.BusyNs / int64(lanes)
	}
	return s.EndNs - s.StartNs
}

// layerOf is the layer a span name belongs to: the part before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one that is switched off, records nothing: start returns -1 and every
// other method accepts -1 as "no span". Traced and untraced rounds
// alternate inside one traced run (see runner), so the switch is an
// atomic the submit workers can read.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) setEnabled(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// start opens a span now.
func (r *recorder) start(name string, round, parent int) int {
	if !r.enabled() {
		return -1
	}
	return r.add(span{Parent: parent, Round: round, Name: name, StartNs: r.ns(time.Now()), EndNs: -1})
}

// end closes a span opened by start.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := r.ns(time.Now())
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// add records a finished span (used for spans rebuilt from the program's
// own tracer events and for folded per-order spans) and returns its id.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// interval records a finished plain span between two instants.
func (r *recorder) interval(name string, round, parent int, from, to time.Time) int {
	if !r.enabled() {
		return -1
	}
	return r.add(span{Parent: parent, Round: round, Name: name, StartNs: r.ns(from), EndNs: r.ns(to)})
}

// adopt re-parents the root-less spans of a round under root — for a
// round whose start is only known once it has ended.
func (r *recorder) adopt(round, root int) {
	r.mu.Lock()
	for i := range r.spans {
		if s := &r.spans[i]; s.Round == round && s.Parent < 0 && s.ID != root && s.ID < root {
			s.Parent = root
		}
	}
	r.mu.Unlock()
}

// fold accumulates the calls one lane makes to one function during one
// round; flush turns it into a single folded span.
type fold struct {
	name        string
	first, last time.Time
	busy        time.Duration
	count       int
	lastStarted time.Time
}

// begin/done bracket one call. They always keep the count and the busy
// time (two clock reads per call) because the per-order means are
// reported from them; whether a span is written is flush's decision.
func (f *fold) begin() {
	f.lastStarted = time.Now()
	if f.count == 0 {
		f.first = f.lastStarted
	}
}

func (f *fold) done() {
	now := time.Now()
	f.busy += now.Sub(f.lastStarted)
	f.last = now
	f.count++
}

func (r *recorder) flush(f *fold, round, parent, lanes int) {
	if !r.enabled() || f.count == 0 {
		return
	}
	r.add(span{
		Parent: parent, Round: round, Name: f.name,
		StartNs: r.ns(f.first), EndNs: r.ns(f.last),
		Count: f.count, BusyNs: f.busy.Nanoseconds(), Lanes: lanes,
	})
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// budgetRow is one line of the per-layer budget: the self time of every
// span with that name, averaged per traced round.
type budgetRow struct {
	Name  string
	Layer string
	SelfS float64 // mean self seconds per round
	Calls float64 // mean calls per round
}

// budget computes self times (a span's cover minus what its children
// cover, floored at zero) for the spans under the given root name and
// averages them per round. Spans outside any such root (the block
// autopsy) are budgeted separately by passing their root name.
func (r *recorder) budget(root string) (rows []budgetRow, rootS float64, rounds int) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()

	childCover := make(map[int]int64)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			childCover[p] += spans[i].cover()
		}
	}
	// under[i] reports whether span i descends from (or is) a root span.
	// A parent may have a higher id than its child (adopt), so each span
	// walks up its chain.
	under := make([]bool, len(spans))
	for i := range spans {
		top := i
		for spans[top].Parent >= 0 {
			top = spans[top].Parent
		}
		under[i] = spans[top].Name == root
		if top == i && under[i] {
			rounds++
			rootS += float64(spans[i].EndNs-spans[i].StartNs) / 1e9
		}
	}
	if rounds == 0 {
		return nil, 0, 0
	}
	type acc struct {
		self  int64
		calls int
	}
	byName := make(map[string]*acc)
	for i := range spans {
		if !under[i] {
			continue
		}
		s := &spans[i]
		self := s.cover() - childCover[i]
		if self < 0 {
			self = 0
		}
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		a.self += self
		if s.Count > 0 {
			a.calls += s.Count
		} else {
			a.calls++
		}
	}
	for name, a := range byName {
		rows = append(rows, budgetRow{
			Name: name, Layer: layerOf(name),
			SelfS: float64(a.self) / 1e9 / float64(rounds),
			Calls: float64(a.calls) / float64(rounds),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, rootS / float64(rounds), rounds
}

// printBudget renders the budget table: per span name the self time,
// its share of the root's mean duration, and the unattributed
// remainder (the root's own self time).
func printBudget(w *strings.Builder, title string, rows []budgetRow, rootName string, rootS float64, rounds int) {
	fmt.Fprintf(w, "  %s (mean over %d traced rounds, root %s = %.4f s)\n", title, rounds, rootName, rootS)
	fmt.Fprintf(w, "    %-34s %-9s %12s %8s %12s\n", "span", "layer", "self_s", "share", "calls/round")
	var rest float64
	for _, row := range rows {
		if row.Name == rootName {
			rest = row.SelfS
			continue
		}
		fmt.Fprintf(w, "    %-34s %-9s %12.6f %7.1f%% %12.1f\n", row.Name, row.Layer, row.SelfS, 100*row.SelfS/rootS, row.Calls)
	}
	fmt.Fprintf(w, "    %-34s %-9s %12.6f %7.1f%%\n", "(unattributed)", "-", rest, 100*rest/rootS)
}
