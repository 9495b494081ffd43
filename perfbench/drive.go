package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"flep/internal/server"
)

// outcome is one launch as the benchmark's client saw it. It is kept
// small: the open-loop workloads hold one per launch, and the
// benchmark's own heap shows in peak_heap_mb.
type outcome struct {
	req      *server.LaunchRequest
	sent     time.Duration // send (closed loop) or due (open loop) offset from the phase start
	lat      time.Duration // from send or due time to the full response
	qwaitNS  int64         // admission-queue wait the server reported
	status   int           // HTTP status; 0 for a transport error
	attained bool          // a deadline-bearing launch met its deadline
	bad      string        // why a response was wrong; empty when it was right
}

func (o *outcome) ok() bool { return o.status == http.StatusOK && o.bad == "" }

// lc reports a latency-critical launch: priority 2, the level that
// deadline-bearing launches and every stage of a deadline-bearing graph
// are sent at.
func (o *outcome) lc() bool { return o.req.Priority == lcPriority }

// done is when the response arrived, as an offset from the phase start.
func (o *outcome) done() time.Duration { return o.sent + o.lat }

// graphOutcome is one model graph of the graph workload.
type graphOutcome struct {
	lc       bool
	due      time.Duration
	lat      time.Duration // due time to the last stage's response
	ok       bool          // every stage completed
	attained bool          // ok, and the terminal stage met its deadline
	bad      string
}

// phase is one timed stretch of load: warm-up, the measured window, or
// the traced window. Its tally counts every launch; outs holds every
// launch of an open-loop phase but only a fixed-size sample of a closed
// loop's successes (see closedLoop), so only distributions are read from
// it, never counts.
type phase struct {
	start, end time.Time // end is the last response
	tally      tally
	outs       []outcome
	graphs     []graphOutcome
	late       []float64 // open-loop generator lateness, µs
}

// statusKey is a response status and whether the response was wrong.
type statusKey struct {
	status int
	bad    bool
}

// tally is the exact count of a phase's launches.
type tally struct {
	attempted int
	byStatus  map[statusKey]int
	ok        int // 200 with a right body
	// Deadline-bearing launches, and those that completed in time.
	lcTried, lcMet int
	// done counts successes by the time slice of the window (span/slices
	// wide) their response arrived in; later ones are not counted.
	done     [slices]int
	problems []string // the first few wrong launches, described
}

func newTally() tally { return tally{byStatus: map[statusKey]int{}} }

// add counts one launch of a phase over window.
func (t *tally) add(o *outcome, window time.Duration) {
	t.attempted++
	t.byStatus[statusKey{o.status, o.bad != ""}]++
	if o.req.DeadlineMS > 0 {
		t.lcTried++
		if o.ok() && o.attained {
			t.lcMet++
		}
	}
	if o.ok() {
		t.ok++
		if i := sliceOf(o.done(), window); i < slices {
			t.done[i]++
		}
	}
	if o.bad != "" && len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf("%s/%s: status %d: %s", o.req.Benchmark, o.req.Class, o.status, o.bad))
	}
}

// merge adds u's counts to t.
func (t *tally) merge(u *tally) {
	t.attempted += u.attempted
	for k, n := range u.byStatus {
		t.byStatus[k] += n
	}
	t.ok += u.ok
	t.lcTried += u.lcTried
	t.lcMet += u.lcMet
	for i, n := range u.done {
		t.done[i] += n
	}
	for _, p := range u.problems {
		if len(t.problems) < 5 {
			t.problems = append(t.problems, p)
		}
	}
}

// status is how many launches were answered with code, right or wrong.
func (t *tally) status(code int) int {
	return t.byStatus[statusKey{code, false}] + t.byStatus[statusKey{code, true}]
}

// tallyAll counts an open-loop phase's launches once they have all
// returned.
func tallyAll(outs []outcome, window time.Duration) tally {
	t := newTally()
	for i := range outs {
		t.add(&outs[i], window)
	}
	return t
}

// samplePerSlice is how many successes a closed-loop worker keeps per
// time slice for the latency distributions.
const samplePerSlice = 128

// reservoir keeps a uniform sample of at most samplePerSlice successes
// per time slice, in memory allocated before the window opens: a closed
// loop's own footprint then stays the same however fast the program
// runs, and peak_heap_mb measures the program rather than the client.
type reservoir struct {
	rng  *rand.Rand
	seen [slices]int
	kept [slices][]outcome
}

func newReservoir(seed int64) *reservoir {
	r := &reservoir{rng: rand.New(rand.NewSource(seed))}
	backing := make([]outcome, slices*samplePerSlice)
	for i := range r.kept {
		r.kept[i] = backing[i*samplePerSlice : i*samplePerSlice : (i+1)*samplePerSlice]
	}
	return r
}

// offer considers one success sent in slice i (Algorithm R).
func (r *reservoir) offer(i int, o outcome) {
	r.seen[i]++
	if len(r.kept[i]) < samplePerSlice {
		r.kept[i] = append(r.kept[i], o)
	} else if j := r.rng.Intn(r.seen[i]); j < samplePerSlice {
		r.kept[i][j] = o
	}
}

func (p *phase) elapsed() time.Duration { return p.end.Sub(p.start) }

// settle fills in a response: a 2xx body must decode to a LaunchResult
// for the requested kernel and class, and a deadline-bearing one must
// carry its verdict.
func (o *outcome) settle(status int, body []byte, cat catalog) {
	o.status = status
	switch status {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusConflict:
		return // refusals; whether they are designed is the workload's call
	default:
		o.bad = fmt.Sprintf("status %d: %.120s", status, body)
		return
	}
	var res server.LaunchResult
	if err := json.Unmarshal(body, &res); err != nil {
		o.bad = "2xx body is not a LaunchResult: " + err.Error()
		return
	}
	switch {
	case cat[res.Kernel].Name == "" || res.Kernel != o.req.Benchmark || res.Class != o.req.Class:
		o.bad = fmt.Sprintf("asked for %s/%s, got kernel %q class %q", o.req.Benchmark, o.req.Class, res.Kernel, res.Class)
	case res.Err != "":
		o.bad = "2xx carries error " + res.Err
	case o.req.DeadlineMS > 0 && res.SLO != "attained" && res.SLO != "missed":
		o.bad = fmt.Sprintf("deadline-bearing launch has slo %q", res.SLO)
	}
	o.qwaitNS, o.attained = res.QueueWaitRealNS, res.SLO == "attained"
}

// closedLoop runs workers callers against url for window, each sending its
// next launch only once the previous one has returned, as a FLEP launch
// site blocked in flep_intercept does. It counts every launch but keeps
// only a reservoir sample of the successes.
func closedLoop(client *http.Client, url string, workers int, seed int64, window time.Duration,
	tr *tracer, cat catalog) *phase {
	tallies := make([]tally, workers)
	samples := make([]*reservoir, workers)
	for w := range samples {
		tallies[w] = newTally()
		samples[w] = newReservoir(seed*7919 - int64(w) - 1)
	}
	ends := make([]time.Time, workers)
	p := &phase{start: time.Now()}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workerRNG(seed, w)
			reqs := wireRequests(fmt.Sprintf("w%d", w))
			bodies := make([][]byte, len(reqs))
			for i, q := range reqs {
				bodies[i], _ = json.Marshal(q)
			}
			for time.Since(p.start) < window {
				i := rng.Intn(len(reqs))
				o := outcome{req: reqs[i]}
				id, spanStart, traced := tr.begin()
				t0 := time.Now()
				o.sent = t0.Sub(p.start)
				hr, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[i]))
				hr.Header.Set("Content-Type", "application/json")
				if traced {
					hr.Header.Set(spanHeader, strconv.FormatInt(id, 10))
				}
				var respBody []byte
				resp, err := client.Do(hr)
				if err == nil {
					respBody, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				ends[w] = time.Now()
				o.lat = ends[w].Sub(t0)
				if traced {
					tr.end(id, 0, spanStart, "client.rtt", strconv.FormatInt(id, 10))
				}
				if err != nil {
					o.bad = "transport: " + err.Error()
				} else {
					o.settle(resp.StatusCode, respBody, cat)
				}
				tallies[w].add(&o, window)
				if o.ok() {
					samples[w].offer(min(sliceOf(o.sent, window), slices-1), o)
				}
			}
		}(w)
	}
	wg.Wait()
	p.tally = newTally()
	for w := range tallies {
		p.tally.merge(&tallies[w])
		for _, kept := range samples[w].kept {
			p.outs = append(p.outs, kept...)
		}
		if ends[w].After(p.end) {
			p.end = ends[w]
		}
	}
	return p
}

// openLoop fires n arrivals at their due offsets, each on its own
// goroutine, regardless of how earlier ones fare, and waits for all of
// them. It records how late the generator fired each one.
func openLoop(n int, dueAt func(i int) time.Duration, fire func(i int, due time.Time)) (start time.Time, late []float64) {
	start = time.Now()
	late = make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(dueAt(i))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(due)) / 1e3
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fire(i, due)
		}(i)
	}
	wg.Wait()
	return start, late
}

// inProcessLaunch sends one launch body straight to the front door's
// ServeHTTP: open-loop tenants need no connections.
func inProcessLaunch(front http.Handler, body []byte, span int64) (int, []byte) {
	hr := httptest.NewRequest(http.MethodPost, "/v1/launch", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hr.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	rec := httptest.NewRecorder()
	front.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes()
}

// launchOpenLoop encodes an arrival schedule and returns the function
// that drives it into the front door, so the encoding stays outside the
// measured window.
func launchOpenLoop(front http.Handler, sched []arrival, window time.Duration, tr *tracer, cat catalog) func() *phase {
	bodies := make([][]byte, len(sched))
	for i, a := range sched {
		bodies[i], _ = json.Marshal(a.req)
	}
	return func() *phase { return fireLaunches(front, sched, bodies, window, tr, cat) }
}

func fireLaunches(front http.Handler, sched []arrival, bodies [][]byte, window time.Duration, tr *tracer, cat catalog) *phase {
	p := &phase{outs: make([]outcome, len(sched))}
	ends := make([]time.Time, len(sched))
	var start time.Time
	start, p.late = openLoop(len(sched), func(i int) time.Duration { return sched[i].at },
		func(i int, due time.Time) {
			id, _, traced := tr.begin()
			code, body := inProcessLaunch(front, bodies[i], id)
			ends[i] = time.Now()
			if traced {
				tr.add(Span{ID: id, Name: "gen.request", Req: strconv.FormatInt(id, 10),
					Start: tr.at(due), End: tr.at(ends[i])})
			}
			o := outcome{req: &sched[i].req, sent: sched[i].at, lat: ends[i].Sub(due)}
			o.settle(code, body, cat)
			p.outs[i] = o
		})
	p.start = start
	for _, e := range ends {
		if e.After(p.end) {
			p.end = e
		}
	}
	p.tally = tallyAll(p.outs, window)
	return p
}

// graphOpenLoop encodes graph arrivals and returns the function that
// drives them into the front door, each graph's stages submitted
// concurrently (the nodes' dependency tables order them).
func graphOpenLoop(front http.Handler, sched []graphArrival, window time.Duration, tr *tracer, joins *joinTable, cat catalog) func() *phase {
	p := &phase{graphs: make([]graphOutcome, len(sched))}
	first := make([]int, len(sched))
	bodies := make([][][]byte, len(sched))
	for i, g := range sched {
		first[i] = len(p.outs)
		for j := range g.stages {
			b, _ := json.Marshal(g.stages[j])
			bodies[i] = append(bodies[i], b)
			p.outs = append(p.outs, outcome{req: &g.stages[j], sent: g.at})
		}
	}
	return func() *phase { return fireGraphs(front, sched, p, first, bodies, window, tr, joins, cat) }
}

func fireGraphs(front http.Handler, sched []graphArrival, p *phase, first []int, bodies [][][]byte,
	window time.Duration, tr *tracer, joins *joinTable, cat catalog) *phase {
	ends := make([]time.Time, len(sched))
	var start time.Time
	start, p.late = openLoop(len(sched), func(i int) time.Duration { return sched[i].at },
		func(i int, due time.Time) {
			g := sched[i]
			var wg sync.WaitGroup
			stageEnds := make([]time.Time, len(g.stages))
			for j := range g.stages {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					o := &p.outs[first[i]+j]
					id, _, traced := tr.begin()
					key := stageKey(g.client, g.id, o.req.Stage)
					if traced {
						joins.setKey(key, id)
					}
					code, body := inProcessLaunch(front, bodies[i][j], id)
					stageEnds[j] = time.Now()
					if traced {
						tr.add(Span{ID: id, Name: "gen.stage", Req: key, Start: tr.at(due), End: tr.at(stageEnds[j])})
					}
					o.lat = stageEnds[j].Sub(due)
					o.settle(code, body, cat)
				}(j)
			}
			wg.Wait()
			for _, e := range stageEnds {
				if e.After(ends[i]) {
					ends[i] = e
				}
			}
			p.graphs[i] = judgeGraph(g, p.outs[first[i]:first[i]+len(g.stages)], ends[i].Sub(due))
			p.graphs[i].due = g.at
		})
	p.start = start
	for _, e := range ends {
		if e.After(p.end) {
			p.end = e
		}
	}
	p.tally = tallyAll(p.outs, window)
	return p
}

// judgeGraph checks that a graph ended with every stage completed or
// cascade-canceled: a stage whose prerequisites all completed must have
// completed or been refused itself (429); a stage with a prerequisite
// that did not complete must have been canceled (409).
func judgeGraph(g graphArrival, outs []outcome, lat time.Duration) graphOutcome {
	res := graphOutcome{lc: g.lc, lat: lat, ok: true}
	status := map[string]int{}
	for _, o := range outs {
		status[o.req.Stage] = o.status
	}
	order, _ := g.graph.TopoOrder()
	for _, i := range order {
		s := g.graph.Stages[i]
		prereqsDone := true
		for _, a := range s.After {
			prereqsDone = prereqsDone && status[a] == http.StatusOK
		}
		got := status[s.Name]
		switch {
		case prereqsDone && got != http.StatusOK && got != http.StatusTooManyRequests:
			res.bad = fmt.Sprintf("graph %s stage %s: prerequisites done but status %d", g.id, s.Name, got)
		case !prereqsDone && got != http.StatusConflict:
			res.bad = fmt.Sprintf("graph %s stage %s: prerequisite failed but status %d, want 409", g.id, s.Name, got)
		}
		res.ok = res.ok && got == http.StatusOK
	}
	for _, o := range outs {
		if o.bad != "" {
			res.ok = false
		}
		if o.req.DeadlineMS > 0 {
			res.attained = res.ok && o.attained
		}
	}
	return res
}
