package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval recorded by the benchmark's own code around
// a call into a layer of the program. Spans of one request share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while it is on; they are written out only
// when the run ends. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin allocates a span ID and stamps its start; ok is false while the
// tracer is off.
func (t *tracer) begin() (id, start int64, ok bool) {
	if !t.active() {
		return 0, 0, false
	}
	return t.next.Add(1), t.now(), true
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

// end records a span that began with begin.
func (t *tracer) end(id, parent, start int64, name, req string) {
	t.add(Span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: t.now()})
}

func (t *tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a root span named name around fn.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	id, start, ok := t.begin()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if ok {
		t.end(id, 0, start, name, "")
	}
	return d, err
}

func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeJSONL dumps the spans, one JSON object per line.
func writeJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf is one row of the per-layer self-time table.
type layerSelf struct {
	Name  string
	Count int
	Self  int64 // summed self time, ns
}

// selfReport sums self time per span name and checks that the self times
// account for the root spans: with children nested in their parents and
// not overlapping each other, the self times of a request's spans add up
// to its root span exactly. gap is |Σself − Σroot| / Σroot; a child that
// outlives its parent, overlapping siblings or an orphaned span widen it.
func selfReport(spans []Span) (rows []layerSelf, gap float64) {
	self := selfTimes(spans)
	byName := map[string]*layerSelf{}
	var selfSum, rootSum int64
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerSelf{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.Self += self[s.ID]
		selfSum += self[s.ID]
		if s.Parent == 0 {
			rootSum += s.dur()
		}
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	if rootSum == 0 {
		return rows, 0
	}
	d := selfSum - rootSum
	if d < 0 {
		d = -d
	}
	return rows, float64(d) / float64(rootSum)
}

// renderSelf prints the self-time table, per launch.
func renderSelf(rows []layerSelf, launches int) []string {
	out := []string{fmt.Sprintf("%-18s %9s %12s %12s", "span", "count", "self_ms", "self_us/launch")}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%-18s %9d %12.3f %12.3f",
			r.Name, r.Count, float64(r.Self)/1e6, ratio(float64(r.Self)/1e3, float64(launches))))
	}
	return out
}
