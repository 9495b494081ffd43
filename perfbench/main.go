// Command perfbench is the serving benchmark: it runs the shipped flepd /
// flepgw stack in-process on one of four workloads, measures it from
// outside, checks every output, and prints its metrics. See README.md.
//
//	go run . --workload wire --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run. The command exits non-zero when any
// output of the program was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"flep/internal/server"
)

// workload is one traffic mix over one shape of the stack.
type workload struct {
	name string
	spec stackSpec
	// kind selects the load generator: closed loop over TCP, open loop of
	// launches, or open loop of model graphs (both in-process).
	kind int
	// designed are the non-2xx statuses the workload provokes on purpose.
	designed map[int]bool
}

const (
	closedTCP = iota
	openLaunches
	openGraphs
)

var workloads = []workload{
	{
		name: "wire",
		spec: stackSpec{nodes: 1, listen: true,
			cfg: server.Config{Policy: "hpf", Benchmarks: wireBenches}},
		kind: closedTCP,
	},
	{
		name: "slo-burst",
		spec: stackSpec{nodes: 1, cfg: server.Config{Policy: "edf"}},
		kind: openLaunches,
		designed: map[int]bool{
			http.StatusTooManyRequests: true,
		},
	},
	{
		name: "graph-gateway",
		spec: stackSpec{nodes: 2, gateway: true,
			cfg: server.Config{Policy: "edf", Benchmarks: []string{"NN", "MM", "VA", "SPMV"}}},
		kind: openGraphs,
		designed: map[int]bool{
			http.StatusTooManyRequests: true,
			http.StatusConflict:        true,
		},
	},
	{
		name: "trace-replay",
		spec: stackSpec{nodes: 1, listen: true, record: true,
			cfg: server.Config{Policy: "hpf", Benchmarks: wireBenches, Trace: true}},
		kind: closedTCP,
	},
}

const (
	setupRepeats = 21
	warmup       = time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: wire, slo-burst, graph-gateway or trace-replay")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (wire, slo-burst, graph-gateway, trace-replay), --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	out, _ := json.Marshal(res.jsonLine())
	fmt.Println(string(out))
	if !res.correct() {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run prints.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	report    []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) set(name string, v float64) { r.metrics[name] = metric{v, unitOf(name)} }

func (r *result) say(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) jsonLine() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
}

// workDir makes a fresh directory for one run's files under .bench_build
// in the working directory (the checkout root when run by run.sh).
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// run sets the stack up, warms it, measures, tears it down, checks the
// ledgers and replays.
func run(w *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{w: w, seed: seed, dir: dir, tr: newTracer(),
		res: &result{metrics: map[string]metric{}}}
	if err := r.setup(); err != nil {
		return nil, err
	}
	stackClosed := false
	defer func() {
		if !stackClosed {
			r.st.close()
		}
		if r.httpc != nil {
			r.httpc.CloseIdleConnections()
		}
	}()
	if err := r.warm(seed + 1_000_003); err != nil {
		return nil, err
	}
	// A traced run measures half the window untraced, then the same
	// schedule again with spans on; the replay afterwards is traced too.
	var untraced, win *measured
	if traced {
		if untraced, err = r.measure(window/2, seed); err != nil {
			return nil, err
		}
		r.tr.on.Store(true)
		win, err = r.measure(window-window/2, seed)
	} else {
		win, err = r.measure(window, seed)
	}
	if err != nil {
		return nil, err
	}
	stackClosed = true
	if err := r.st.close(); err != nil {
		r.res.problems = append(r.res.problems, "shutdown: "+err.Error())
	}
	r.checkLedgers()
	r.res.say("host: %s", hostFacts())
	r.account(win)
	if traced {
		r.perLayer(untraced, win)
	} else {
		r.endToEnd(win)
	}
	var rp *replayed
	if r.st.rec != nil {
		rec := r.recording(win)
		// Replay with the stopped stack released, so its GC work does not
		// depend on what the live run left behind.
		r.st = nil
		if rp, err = r.replay(rec); err != nil {
			return nil, err
		}
	}
	r.tr.on.Store(false)
	r.replayMetrics(rp, traced)
	if traced {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", r.w.name, r.seed))
		if err := writeJSONL(path, r.tr.snapshot()); err != nil {
			r.res.problems = append(r.res.problems, "write spans: "+err.Error())
		}
		r.res.say("spans written to %s", path)
	}
	want := endToEndMetrics
	if traced {
		want = perLayerMetrics
	}
	if len(r.res.metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, declared %d", len(r.res.metrics), len(want))
	}
	for _, d := range want {
		if _, ok := r.res.metrics[d.name]; !ok {
			return nil, fmt.Errorf("metric %s not reported", d.name)
		}
	}
	for _, p := range r.res.problems {
		r.res.say("PROBLEM: %s", p)
	}
	return r.res, nil
}

// runner holds one run's state.
type runner struct {
	w       *workload
	seed    int64
	dir     string
	tr      *tracer
	st      *stack
	cat     catalog
	benches []string
	httpc   *http.Client
	setups  []float64
	offline []float64
	res     *result
	// 200s and 504s over every phase, for the ledger check.
	okTotal, timedOut int
}

// setup builds the stack setupRepeats times, keeping the last one, so
// setup_s is a median rather than one sample.
func (r *runner) setup() error {
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		st, err := buildStack(r.w.spec, r.tr, filepath.Join(r.dir, fmt.Sprintf("live-%d.trace", i)))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		for _, n := range st.nodes {
			r.offline = append(r.offline, n.offline.Seconds())
		}
		if i < setupRepeats-1 {
			if err := st.close(); err != nil {
				return fmt.Errorf("setup teardown: %w", err)
			}
			continue
		}
		r.st = st
	}
	rec := serveInProcess(r.st.nodes[0].fleet.Handler(), http.MethodGet, "/v1/benchmarks", nil)
	var infos []server.BenchmarkInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		r.st.close()
		return fmt.Errorf("GET /v1/benchmarks: %w", err)
	}
	r.cat = catalog{}
	for _, bi := range infos {
		r.cat[bi.Name] = bi
		r.benches = append(r.benches, bi.Name)
	}
	sort.Strings(r.benches)
	if r.w.kind == closedTCP {
		n := runtime.NumCPU()
		r.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}}
	}
	return nil
}

// warm runs the workload's traffic, untimed, for a second, and on with
// tracing on until the trace log is full and evicting, so the measured
// window sees the log's steady state rather than its filling.
func (r *runner) warm(stream int64) error {
	for i := 0; i < 30; i++ {
		if _, err := r.measure(warmup, stream+int64(i)); err != nil {
			return err
		}
		if _, evicted := r.traceTotals(); !r.w.spec.cfg.Trace || evicted > 0 {
			return nil
		}
	}
	return fmt.Errorf("warm-up: the trace log never filled")
}

// prepare builds one phase of the workload's traffic (schedule and
// encoded bodies) and returns the function that runs it.
func (r *runner) prepare(span time.Duration, stream int64) (func() *phase, error) {
	switch r.w.kind {
	case closedTCP:
		url := "http://" + r.st.nodes[0].addr + "/v1/launch"
		return func() *phase { return closedLoop(r.httpc, url, runtime.NumCPU(), stream, span, r.tr, r.cat) }, nil
	case openLaunches:
		return launchOpenLoop(r.st.front, sloSchedule(stream, span, r.cat, r.benches), span, r.tr, r.cat), nil
	default:
		sched, err := graphSchedule(stream, span, r.cat)
		if err != nil {
			return nil, err
		}
		return graphOpenLoop(r.st.front, sched, span, r.tr, r.st.joins, r.cat), nil
	}
}

// measured is a phase with everything observed around it.
type measured struct {
	p                      *phase
	span                   time.Duration // the window the load was scheduled over
	cpu                    time.Duration
	cpuMarks               []cpuMark
	heapMB                 float64
	goBefore, goAfter      goSnap
	mBefore, mAfter        map[string]float64
	cBefore, cAfter        map[string]int64
	steps, accepted        int64
	traceAdded, traceEvict int
	scrapeUS               []float64
}

// measure runs one phase with the scraper, heap sampler and counters.
func (r *runner) measure(span time.Duration, stream int64) (*measured, error) {
	load, err := r.prepare(span, stream)
	if err != nil {
		return nil, err
	}
	m := &measured{}
	if m.mBefore, err = scrape(r.metricsHandler()); err != nil {
		return nil, err
	}
	m.cBefore = r.st.counters()
	steps0, acc0 := r.st.steps(), r.st.accepted()
	added0, evict0 := r.traceTotals()
	m.goBefore = readGo()
	cpu0 := cpuTime()
	marks := startCPUMarks(span / slices / 4)
	heap := startHeapSampler(span)
	sc := startScraper(r.metricsHandler(), r.tr)

	m.p = load()
	m.scrapeUS, err = sc.halt()
	m.heapMB = heap.halt()
	m.cpuMarks = marks.halt()
	m.cpu = cpuTime() - cpu0
	m.span = span
	m.goAfter = readGo()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	m.steps, m.accepted = r.st.steps()-steps0, r.st.accepted()-acc0
	added1, evict1 := r.traceTotals()
	m.traceAdded, m.traceEvict = added1-added0, evict1-evict0
	m.cAfter = r.st.counters()
	if m.mAfter, err = scrape(r.metricsHandler()); err != nil {
		return nil, err
	}
	r.okTotal += m.p.tally.status(http.StatusOK)
	r.timedOut += m.p.tally.status(http.StatusGatewayTimeout)
	return m, nil
}

// metricsHandler is what the 1 Hz scraper reads: the gateway (which
// relabels and merges the nodes' expositions) or the single node.
func (r *runner) metricsHandler() http.Handler {
	if r.st.gw != nil {
		return r.st.gw.Handler()
	}
	return r.st.nodes[0].fleet.Handler()
}

// traceTotals is entries ever added to the node trace logs, and evicted.
func (r *runner) traceTotals() (added, evicted int) {
	for _, n := range r.st.nodes {
		for i := 0; i < n.fleet.Devices(); i++ {
			if tl := n.fleet.Shard(i).TraceLog(); tl != nil {
				added += tl.Len() + tl.Dropped()
				evicted += tl.Dropped()
			}
		}
	}
	return added, evicted
}

// checkLedgers runs after the drain: every node's exactly-once ledger
// closes, the nodes completed exactly the launches the client saw
// succeed or time out (a timed-out launch still runs to completion), and
// the gateway accepted (or timed out) exactly what its nodes completed.
func (r *runner) checkLedgers() {
	var completed int64
	for i, n := range r.st.nodes {
		c := n.fleet.Counters()
		if c["enqueued"] != c["completed"]+c["submit_errors"] {
			r.res.problems = append(r.res.problems, fmt.Sprintf("node %d ledger open: enqueued=%d completed=%d submit_errors=%d",
				i, c["enqueued"], c["completed"], c["submit_errors"]))
		}
		completed += c["completed"]
	}
	if completed != int64(r.okTotal+r.timedOut) {
		r.res.problems = append(r.res.problems, fmt.Sprintf("nodes completed %d launches, clients saw %d succeed and %d time out",
			completed, r.okTotal, r.timedOut))
	}
	if r.st.gw != nil {
		var accepted int64
		for _, ns := range r.st.gw.Statuses() {
			accepted += ns.Accepted + ns.TimedOut
		}
		if accepted != completed {
			r.res.problems = append(r.res.problems, fmt.Sprintf("gateway accepted or timed out %d launches, nodes completed %d", accepted, completed))
		}
	}
}

// account fills attempted/failed from the measured phase: a failure is
// any response that was not 2xx, except the refusals the workload
// provokes by design, plus every wrong 2xx.
func (r *runner) account(m *measured) {
	t := &m.p.tally
	r.res.attempted = t.attempted
	r.res.problems = append(r.res.problems, t.problems...)
	for k, n := range t.byStatus {
		switch {
		case k.bad:
			r.res.failed += n
		case k.status != http.StatusOK && !r.w.designed[k.status]:
			r.res.failed += n
			r.res.problems = append(r.res.problems, fmt.Sprintf("%d launches answered %d, which this workload does not provoke", n, k.status))
		}
	}
	for _, g := range m.p.graphs {
		if g.bad != "" {
			r.res.problems = append(r.res.problems, g.bad)
		}
	}
}

// statusMix renders the phase's response codes, e.g. "200=9000 429=12".
func statusMix(p *phase) string {
	counts := map[int]int{}
	for k, n := range p.tally.byStatus {
		counts[k.status] += n
	}
	codes := make([]int, 0, len(counts))
	for c := range counts {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	parts := make([]string, len(codes))
	for i, c := range codes {
		parts[i] = fmt.Sprintf("%d=%d", c, counts[c])
	}
	return strings.Join(parts, " ")
}
