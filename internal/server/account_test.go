package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// pathRun drives one admission path on a fresh daemon and measures the
// Counters() delta it causes.
type pathRun struct {
	t        *testing.T
	s        *Server
	url      string
	before   map[string]int64
	sessions int
	admit    map[string]int64 // delta when the admission decision became visible
	setup    map[string]int64 // what setup launches add after mark
	pending  []pendingLaunch
}

type pendingLaunch struct {
	ch   chan asyncRes
	code int
}

// mark snapshots the counters right before the launch under test.
func (p *pathRun) mark() {
	p.before = p.s.Counters()
	p.sessions = len(p.s.SessionSnapshots())
}

func (p *pathRun) delta() map[string]int64 {
	d := map[string]int64{}
	for k, v := range p.s.Counters() {
		if v != p.before[k] {
			d[k] = v - p.before[k]
		}
	}
	return d
}

// admitted records the delta at the moment the launch's admission
// decision is visible.
func (p *pathRun) admitted() { p.admit = p.delta() }

// awaitAdmitted waits until the launch under test is counted enqueued
// (the loop is paused, so nothing else moves) and records the delta.
func (p *pathRun) awaitAdmitted() {
	waitFor(p.t, "launch enqueued", func() bool { return p.delta()["enqueued"] >= 1 })
	p.admitted()
}

func (p *pathRun) post(req LaunchRequest, code int) {
	p.t.Helper()
	if got, _ := launch(p.t, p.url, req); got != code {
		p.t.Fatalf("POST %+v: code %d, want %d", req, got, code)
	}
}

// async posts req from its own goroutine; its code is checked at rest.
func (p *pathRun) async(req LaunchRequest, code int) {
	p.pending = append(p.pending, pendingLaunch{postAsync(p.url, req), code})
}

func (p *pathRun) pause() {
	if err := p.s.Pause(); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pathRun) resume() {
	if err := p.s.Resume(); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pathRun) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.s.Shutdown(ctx); err != nil {
		p.t.Fatal(err)
	}
}

// TestEveryLaunchPathCountsOneOutcome drives every admission path of
// serveLaunch — validation rejects, dependency-table verdicts, parked
// stages, queue rejects, and the terminal arms of accepted work — and
// checks the accounting contract account owns:
//
//   - at admission, exactly one Counters() family moves, by +1 (this
//     also catches a family counted twice on one path);
//   - at rest, the launch's own delta is exactly the row's families;
//   - at rest, enqueued == completed + submit_errors, every
//     flep_server_launches_total series equals its /v1/status counter,
//     and a rejected launch created no session.
//
// Parked stages count nothing until they leave the table, so for them
// admission is the release (enqueued) or the drain cancel
// (dep_canceled). A released stage is admitted and run by the loop
// back to back, so that row pins its single enqueued count through its
// delta at rest.
func TestEveryLaunchPathCountsOneOutcome(t *testing.T) {
	va := func(client string) LaunchRequest {
		return LaunchRequest{Client: client, Benchmark: "VA", Class: "trivial"}
	}
	stage := func(name string, stages int, after ...string) LaunchRequest {
		req := va("row")
		req.Graph, req.Stage, req.Stages, req.After = "g", name, stages, after
		return req
	}
	with := func(req LaunchRequest, edit func(*LaunchRequest)) LaunchRequest {
		edit(&req)
		return req
	}
	reject := func(req LaunchRequest, code int) func(*pathRun) {
		return func(p *pathRun) {
			p.mark()
			p.post(req, code)
			p.admitted()
		}
	}
	accepted := func(req LaunchRequest, code int) func(*pathRun) {
		return func(p *pathRun) {
			p.pause()
			p.mark()
			p.async(req, code)
			p.awaitAdmitted()
			p.resume()
		}
	}

	rows := []struct {
		name  string
		cfg   Config
		drive func(*pathRun)
		admit string           // the one family that moves at admission ("" = see rest)
		rest  map[string]int64 // the launch's own delta at rest
		owns  bool             // whether the launch owns a session at rest
	}{
		{"bad body", Config{}, func(p *pathRun) {
			p.mark()
			resp, err := http.Post(p.url+"/v1/launch", "application/json", bytes.NewReader([]byte("{")))
			if err != nil {
				p.t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				p.t.Fatalf("bad body: code %d", resp.StatusCode)
			}
			p.admitted()
		}, "rejected_invalid", map[string]int64{"rejected_invalid": 1}, false},
		{"unknown benchmark", Config{}, reject(LaunchRequest{Client: "row", Benchmark: "NOPE"}, http.StatusBadRequest),
			"rejected_invalid", map[string]int64{"rejected_invalid": 1}, false},
		{"bad class", Config{}, reject(with(va("row"), func(r *LaunchRequest) { r.Class = "huge" }), http.StatusBadRequest),
			"rejected_invalid", map[string]int64{"rejected_invalid": 1}, false},
		{"negative field", Config{}, reject(with(va("row"), func(r *LaunchRequest) { r.Priority = -1 }), http.StatusBadRequest),
			"rejected_invalid", map[string]int64{"rejected_invalid": 1}, false},
		{"bad slo", Config{}, reject(with(va("row"), func(r *LaunchRequest) { r.SLOClass = "latency" }), http.StatusBadRequest),
			"rejected_invalid", map[string]int64{"rejected_invalid": 1}, false},
		{"bad dep spec", Config{}, reject(with(va("row"), func(r *LaunchRequest) { r.Graph = "g" }), http.StatusBadRequest),
			"rejected_invalid", map[string]int64{"rejected_invalid": 1}, false},
		{"dep invalid", Config{}, func(p *pathRun) {
			p.post(stage("a", 2), http.StatusOK)
			reject(stage("b", 3), http.StatusBadRequest)(p) // declared count contradicts the graph
		}, "rejected_invalid", map[string]int64{"rejected_invalid": 1}, false},
		{"dep draining", Config{}, func(p *pathRun) {
			p.shutdown()
			reject(stage("a", 1), http.StatusServiceUnavailable)(p)
		}, "rejected_draining", map[string]int64{"rejected_draining": 1}, false},
		{"dep table full", Config{DepPending: 1}, func(p *pathRun) {
			held := with(stage("b", 2, "a"), func(r *LaunchRequest) { r.Client = "setup" })
			p.async(held, http.StatusOK)
			waitFor(p.t, "setup stage parked", func() bool { return p.s.depParkedCount() == 1 })
			reject(stage("b", 2, "a"), http.StatusTooManyRequests)(p)
			p.post(with(held, func(r *LaunchRequest) { r.Stage, r.After = "a", nil }), http.StatusOK)
			p.setup = map[string]int64{"enqueued": 2, "completed": 2}
		}, "rejected_dep_table_full", map[string]int64{"rejected_dep_table_full": 1}, false},
		{"dep canceled", Config{}, func(p *pathRun) {
			p.post(with(stage("a", 2), func(r *LaunchRequest) { r.TasksOverride = 1 << 34 }), http.StatusUnprocessableEntity)
			reject(stage("b", 2, "a"), http.StatusConflict)(p)
		}, "dep_canceled", map[string]int64{"dep_canceled": 1}, false},
		{"parked then released", Config{}, func(p *pathRun) {
			p.pause()
			p.async(stage("a", 2), http.StatusOK)
			waitFor(p.t, "prerequisite enqueued", func() bool { return p.s.Counters()["enqueued"] == 1 })
			p.mark()
			p.async(stage("b", 2, "a"), http.StatusOK)
			waitFor(p.t, "stage parked", func() bool { return p.s.depParkedCount() == 1 })
			if d := p.delta(); len(d) != 0 {
				p.t.Fatalf("parking counted %v, want nothing", d)
			}
			p.resume()
			p.setup = map[string]int64{"completed": 1}
		}, "", map[string]int64{"enqueued": 1, "completed": 1}, true},
		{"parked then drain-canceled", Config{}, func(p *pathRun) {
			p.mark()
			p.async(stage("b", 2, "a"), http.StatusConflict)
			waitFor(p.t, "stage parked", func() bool { return p.s.depParkedCount() == 1 })
			if d := p.delta(); len(d) != 0 {
				p.t.Fatalf("parking counted %v, want nothing", d)
			}
			p.shutdown()
			p.admitted()
		}, "dep_canceled", map[string]int64{"dep_canceled": 1}, true},
		{"queue full", Config{QueueDepth: 2}, func(p *pathRun) {
			p.pause()
			p.async(va("setup"), http.StatusOK)
			p.async(va("setup"), http.StatusOK)
			waitFor(p.t, "queue full", func() bool { return p.s.Counters()["enqueued"] == 2 })
			reject(va("row"), http.StatusTooManyRequests)(p)
			p.resume()
			p.setup = map[string]int64{"completed": 2}
		}, "rejected_queue_full", map[string]int64{"rejected_queue_full": 1}, false},
		{"best-effort shed", Config{QueueDepth: 8}, func(p *pathRun) {
			p.pause()
			p.async(with(va("setup"), func(r *LaunchRequest) { r.DeadlineMS = 60000 }), http.StatusOK)
			for i := 1; i < p.s.beLimit; i++ {
				p.async(va("setup"), http.StatusOK)
			}
			waitFor(p.t, "queue at the best-effort share", func() bool {
				return p.s.Counters()["enqueued"] == int64(p.s.beLimit)
			})
			reject(va("row"), http.StatusTooManyRequests)(p)
			p.resume()
			p.setup = map[string]int64{"completed": int64(p.s.beLimit), "slo_attained": 1}
		}, "rejected_best_effort_shed", map[string]int64{"rejected_best_effort_shed": 1}, false},
		{"draining", Config{}, func(p *pathRun) {
			p.shutdown()
			reject(va("row"), http.StatusServiceUnavailable)(p)
		}, "rejected_draining", map[string]int64{"rejected_draining": 1}, false},
		{"completed", Config{}, accepted(va("row"), http.StatusOK),
			"enqueued", map[string]int64{"enqueued": 1, "completed": 1}, true},
		{"submit error", Config{}, accepted(with(va("row"), func(r *LaunchRequest) { r.TasksOverride = 1 << 34 }), http.StatusUnprocessableEntity),
			"enqueued", map[string]int64{"enqueued": 1, "submit_errors": 1}, true},
		{"handler timeout", Config{}, func(p *pathRun) {
			p.pause()
			p.mark()
			p.async(with(va("row"), func(r *LaunchRequest) { r.TimeoutMS = 500 }), http.StatusGatewayTimeout)
			p.awaitAdmitted()
			waitFor(p.t, "handler timed out", func() bool { return p.delta()["timed_out"] >= 1 })
			p.resume()
		}, "enqueued", map[string]int64{"enqueued": 1, "timed_out": 1, "completed": 1}, true},
		{"client cancel", Config{}, func(p *pathRun) {
			p.pause()
			p.mark()
			body, _ := json.Marshal(va("row"))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/launch", bytes.NewReader(body))
			errCh := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				errCh <- err
			}()
			p.awaitAdmitted()
			cancel()
			if err := <-errCh; err == nil {
				p.t.Fatal("canceled request did not error client-side")
			}
			waitFor(p.t, "cancel recorded", func() bool { return p.delta()["canceled"] >= 1 })
			p.resume()
		}, "enqueued", map[string]int64{"enqueued": 1, "canceled": 1, "completed": 1}, true},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, ts := newTestServer(t, row.cfg)
			p := &pathRun{t: t, s: s, url: ts.URL}
			row.drive(p)

			if want := map[string]int64{row.admit: 1}; row.admit != "" && fmt.Sprint(p.admit) != fmt.Sprint(want) {
				t.Errorf("delta at admission = %v, want %v", p.admit, want)
			}
			want := map[string]int64{}
			for _, m := range []map[string]int64{row.rest, p.setup} {
				for k, v := range m {
					want[k] += v
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for fmt.Sprint(p.delta()) != fmt.Sprint(want) && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			if got := p.delta(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("delta at rest = %v, want %v", got, want)
			}
			for _, pd := range p.pending {
				if r := <-pd.ch; r.err != nil || r.code != pd.code {
					t.Errorf("async launch: code %d err %v, want %d", r.code, r.err, pd.code)
				}
			}

			c := s.Counters()
			if c["enqueued"] != c["completed"]+c["submit_errors"] {
				t.Errorf("ledger open at rest: %v", c)
			}
			var st struct {
				Counters      map[string]int64 `json:"counters"`
				ExactlyOnceOK bool             `json:"exactly_once_ok"`
			}
			resp, err := http.Get(ts.URL + "/v1/status")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !st.ExactlyOnceOK {
				t.Errorf("exactly_once_ok false at rest: %v", st.Counters)
			}
			for _, f := range outcomes {
				status, ok := st.Counters[f.key]
				if !ok {
					t.Errorf("/v1/status counters lack %q", f.key)
				}
				series := `flep_server_launches_total{outcome=` + strconv.Quote(f.label) + `}`
				if m := metricValue(t, ts.URL, series); int64(m) != status {
					t.Errorf("%s = %v, /v1/status %s = %d", series, m, f.key, status)
				}
			}

			sessions := map[string]SessionSnapshot{}
			for _, snap := range s.SessionSnapshots() {
				sessions[snap.ID] = snap
			}
			if row.owns {
				if sess, ok := sessions["row"]; !ok || sess.InFlight != 0 {
					t.Errorf("accepted launch's session: %+v (present %v), want InFlight=0", sess, ok)
				}
			} else if len(sessions) != p.sessions {
				t.Errorf("rejected launch changed the session count %d -> %d: %+v", p.sessions, len(sessions), sessions)
			}
		})
	}
}
