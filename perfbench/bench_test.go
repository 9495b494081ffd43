package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"flep/internal/obs"
	"flep/internal/server"
)

func testCatalog() catalog {
	cat := catalog{}
	for _, b := range []string{"VA", "MM", "NN", "SPMV"} {
		cat[b] = server.BenchmarkInfo{Name: b, Classes: map[string]server.ClassInfo{
			"small": {SoloNS: 700_000}, "large": {SoloNS: 9_000_000}, "trivial": {SoloNS: 60_000},
		}}
	}
	return cat
}

func TestSameSeedSameSchedule(t *testing.T) {
	cat := testCatalog()
	benches := []string{"MM", "NN", "SPMV", "VA"}
	a := sloSchedule(7, 2*time.Second, cat, benches)
	b := sloSchedule(7, 2*time.Second, cat, benches)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("slo-burst schedule differs for one seed (%d vs %d arrivals)", len(a), len(b))
	}
	if c := sloSchedule(8, 2*time.Second, cat, benches); reflect.DeepEqual(a, c) {
		t.Fatal("slo-burst schedule ignores the seed")
	}
	lc, large := 0, 0
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if x.req.DeadlineMS > 0 {
			lc++
		}
		if x.req.Class == "large" {
			large++
		}
	}
	if lc == 0 || lc == len(a) || large == 0 || large == len(a) {
		t.Fatalf("mix lacks variety: %d deadline-bearing, %d large of %d", lc, large, len(a))
	}

	g1, err := graphSchedule(7, time.Second, cat)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := graphSchedule(7, time.Second, cat)
	if len(g1) == 0 || !reflect.DeepEqual(g1, g2) {
		t.Fatal("graph schedule differs for one seed")
	}
	for _, g := range g1 {
		if err := g.graph.Validate(); err != nil {
			t.Fatalf("graph %s: %v", g.id, err)
		}
	}

	w1, w2, w3 := workerRNG(7, 1), workerRNG(7, 1), workerRNG(8, 1)
	same, n := 0, len(wireRequests("w1"))
	for i := 0; i < 100; i++ {
		x, y, z := w1.Intn(n), w2.Intn(n), w3.Intn(n)
		if x != y {
			t.Fatalf("wire request %d differs for one seed: %d vs %d", i, x, y)
		}
		if x == z {
			same++
		}
	}
	if same == 100 {
		t.Fatal("wire request stream ignores the seed")
	}
}

func TestBurstsExceedTheQueue(t *testing.T) {
	const span = 4 * time.Second
	sched := sloSchedule(3, span, testCatalog(), []string{"VA"})
	var in, out int
	for _, a := range sched {
		if a.at%sloBurstEvery < sloBurstLen {
			in++
		} else {
			out++
		}
	}
	bursts := int(span / sloBurstEvery)
	const defaultQueue = 256 // flepd -queue
	if perBurst := in / bursts; perBurst < sloBurstSize || perBurst <= defaultQueue {
		t.Fatalf("%d launches per burst; want at least %d, more than the default queue", perBurst, sloBurstSize)
	}
	baseRate := float64(out) / (span - time.Duration(bursts)*sloBurstLen).Seconds()
	if math.Abs(baseRate-sloBaseRate)/sloBaseRate > 0.1 {
		t.Fatalf("base rate %.0f/s, want about %.0f/s", baseRate, sloBaseRate)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) dist {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return newDist(v)
	}
	cases := []struct {
		n          int
		wantQ      float64
		wantValue  float64
		wantBeyond int
	}{
		{1000, 99, 990, 10}, // exactly ten beyond p99
		{999, 95, 950, 49},  // p99 would leave nine
		{10000, 99, 9900, 100},
		{25, 50, 13, 12}, // only the median has ten beyond
		{5, 100, 5, 0},   // nothing supported: the maximum
	}
	for _, c := range cases {
		v, q, beyond := seq(c.n).tail(99)
		if q != c.wantQ || v != c.wantValue || beyond != c.wantBeyond {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d beyond",
				c.n, q, v, beyond, c.wantQ, c.wantValue, c.wantBeyond)
		}
	}
	if q := seq(100000).supported(100); q != 99.99 {
		t.Errorf("highest supported of 100000 samples is p%g, want p99.99", q)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i)
	}
	if hi, lo := leastDisturbed(v, true), leastDisturbed(v, false); hi != 90 || lo != 10 {
		t.Errorf("least disturbed of 1..100 = %g (higher better), %g (lower better); want 90, 10", hi, lo)
	}
}

func TestReservoirKeepsAFixedSamplePerSlice(t *testing.T) {
	r := newReservoir(1)
	for i := 0; i < 10*samplePerSlice; i++ {
		r.offer(3, outcome{lat: time.Duration(i)})
	}
	r.offer(4, outcome{})
	if n := len(r.kept[3]); n != samplePerSlice || r.seen[3] != 10*samplePerSlice {
		t.Fatalf("slice 3 kept %d of %d offered, want %d", n, r.seen[3], samplePerSlice)
	}
	late := 0
	for _, o := range r.kept[3] {
		if o.lat >= samplePerSlice {
			late++
		}
	}
	if late == 0 || len(r.kept[4]) != 1 {
		t.Fatalf("kept %d offers past the first %d of slice 3 and %d of slice 4", late, samplePerSlice, len(r.kept[4]))
	}
	if cap(r.kept[3]) != samplePerSlice {
		t.Fatalf("slice 3 grew to capacity %d", cap(r.kept[3]))
	}
}

func TestCPUAtInterpolates(t *testing.T) {
	t0 := time.Unix(0, 0)
	marks := []cpuMark{{t0, 0}, {t0.Add(10 * time.Millisecond), 4 * time.Millisecond}, {t0.Add(30 * time.Millisecond), 6 * time.Millisecond}}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{{-time.Millisecond, 0}, {5 * time.Millisecond, 2e6}, {20 * time.Millisecond, 5e6}, {time.Second, 6e6}} {
		if got := cpuAt(marks, t0.Add(c.at)); got != c.want {
			t.Errorf("cpuAt(%v) = %g, want %g", c.at, got, c.want)
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10,50) together, once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A grandchild nested inside a.
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 25},
		// A child running past its parent's end counts only inside it.
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 10, 5: 30}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	_, gap := selfReport(spans)
	// Σself = 50+20+20+10+30 = 130 against a 100 root: overlap (10) and
	// overhang (20) both show up as gap.
	if math.Abs(gap-0.30) > 1e-9 {
		t.Fatalf("gap %.3f, want 0.300", gap)
	}

	clean := []Span{
		{ID: 1, Name: "client.rtt", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 20, End: 80},
		{ID: 3, Name: "client.rtt", Start: 100, End: 150},
		{ID: 4, Parent: 3, Name: "server.handler", Start: 110, End: 140},
	}
	rows, gap := selfReport(clean)
	if gap != 0 {
		t.Fatalf("nested, disjoint children leave gap %.3f, want 0", gap)
	}
	if rows[0].Name != "client.rtt" || rows[0].Self != 40+20 || rows[1].Self != 60+30 {
		t.Fatalf("rows %+v", rows)
	}
	// An orphan (its parent never recorded) is a gap too: 25 against
	// 150 of root time.
	if _, gap := selfReport(append(clean, Span{ID: 9, Parent: 42, Name: "x", Start: 0, End: 25})); math.Abs(gap-25.0/150) > 1e-9 {
		t.Fatalf("orphan gap %.3f, want 0.167", gap)
	}
}

func TestMetricsDeltaThroughParseText(t *testing.T) {
	reg := obs.NewRegistry()
	primary := reg.Counter("flep_runtime_dispatches_total", "dispatches", "kind", "primary")
	guest := reg.Counter("flep_runtime_dispatches_total", "dispatches", "kind", "guest")
	batch := reg.Histogram("flep_server_admission_batch_size", "batch", []float64{1, 2, 4, 8})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		_ = reg.WritePrometheus(w, "node", "n0")
	})

	primary.Add(5)
	batch.Observe(1)
	before, err := scrape(h)
	if err != nil {
		t.Fatal(err)
	}
	primary.Add(7)
	guest.Add(3)
	batch.Observe(3)
	batch.Observe(5)
	after, err := scrape(h)
	if err != nil {
		t.Fatal(err)
	}
	if d := familyDelta(before, after, "flep_runtime_dispatches_total"); d != 10 {
		t.Fatalf("dispatch delta %g, want 10 (summed over kind labels)", d)
	}
	mean := ratio(familyDelta(before, after, "flep_server_admission_batch_size_sum"),
		familyDelta(before, after, "flep_server_admission_batch_size_count"))
	if mean != 4 {
		t.Fatalf("mean batch over the window %g, want 4", mean)
	}
	if d := familyDelta(before, after, "flep_absent_total"); d != 0 {
		t.Fatalf("absent family delta %g, want 0", d)
	}
	if _, err := scrape(http.NotFoundHandler()); err == nil {
		t.Fatal("scrape of a handler without /metrics succeeded")
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
}

// TestWorkloadsRunClean drives every workload briefly, traced, and checks
// that the correctness gate passes and every per-layer metric is printed.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the whole stack")
	}
	t.Chdir(t.TempDir())
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, 5, 2*time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 {
				t.Fatal("no launches attempted")
			}
			// The race detector slows the stack several times over, so the
			// open-loop workloads overload it and time out; the run still
			// takes every path for the detector, but only a plain build
			// must pass the correctness gate.
			if !res.correct() && !raceEnabled {
				t.Fatalf("attempted %d failed %d problems %v", res.attempted, res.failed, res.problems)
			}
			if gap := res.metrics["bench.self_gap_share"].Value; gap > 0.05 {
				t.Fatalf("self-time gap %.3f", gap)
			}
		})
	}
}
