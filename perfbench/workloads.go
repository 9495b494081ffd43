package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"flep/internal/model"
	"flep/internal/server"
)

// The offered rates of the open-loop workloads. They are fixed here and
// quoted in BENCHMARK.json; nothing adapts them at run time, so a faster
// program shows as lower latency, fewer refusals and less CPU, never as a
// different offered load.
const (
	// slo-burst: Poisson arrivals at sloBaseRate, plus every
	// sloBurstEvery a burst of sloBurstSize launches due within
	// sloBurstLen. The base rate sits well below one node's capacity for
	// this mix; a burst is larger than the admission queue, so every burst
	// fills it, however fast the host.
	sloBaseRate   = 3000.0 // launches/s
	sloBurstSize  = 400
	sloBurstEvery = 250 * time.Millisecond
	sloBurstLen   = 5 * time.Millisecond
	sloTenants    = 16
	// Deadlines are sloSlack × the kernel's solo time (virtual), rounded
	// up to whole milliseconds.
	sloSlack = 3.0

	// graph-gateway: Poisson graph arrivals at graphRate over two nodes.
	graphRate    = 300.0 // graphs/s
	graphTenants = 32
	graphSlack   = 2.0
)

// lcPriority is the priority latency-critical launches carry; the rest
// are best-effort at priority 1.
const lcPriority = 2

// wireBenches are the kernels the closed-loop workloads launch, always in
// the trivial class, so the simulator stays nearly idle.
var wireBenches = []string{"VA", "MM"}

// graphPresets are the model graphs the graph workload draws from.
var graphPresets = []string{"resnet", "bert", "diamond"}

// catalog is what a node reports at GET /v1/benchmarks, indexed.
type catalog map[string]server.BenchmarkInfo

// soloMS is a kernel's solo run time in (virtual) milliseconds.
func (c catalog) soloMS(bench, class string) float64 {
	return float64(c[bench].Classes[class].SoloNS) / 1e6
}

// deadlineMS turns a solo time into a whole-millisecond budget.
func deadlineMS(soloMS, slack float64) int {
	return int(math.Ceil(soloMS * slack))
}

// arrival is one launch of an open-loop schedule.
type arrival struct {
	at  time.Duration // due offset from the start of the phase
	req server.LaunchRequest
}

// graphArrival is one model graph of the graph workload's schedule.
type graphArrival struct {
	at     time.Duration
	client string
	id     string
	graph  *model.Graph
	lc     bool
	stages []server.LaunchRequest
}

// wireRequests are a closed-loop worker's four launches: trivial VA or
// MM, latency-critical (priority 2 with a deadline) or best-effort
// (priority 1). The simulator stays nearly idle on them.
func wireRequests(client string) []*server.LaunchRequest {
	var out []*server.LaunchRequest
	for _, b := range wireBenches {
		out = append(out,
			&server.LaunchRequest{Client: client, Benchmark: b, Class: "trivial", Priority: 1},
			&server.LaunchRequest{Client: client, Benchmark: b, Class: "trivial", Priority: lcPriority, DeadlineMS: 1})
	}
	return out
}

// workerRNG is worker w's request stream for a seed.
func workerRNG(seed int64, w int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(w) + 1))
}

// sloSchedule is the slo-burst arrival schedule for [0, span): Poisson
// base traffic plus periodic bursts, over every loaded kernel, small and
// large inputs, half latency-critical.
func sloSchedule(seed int64, span time.Duration, cat catalog, benches []string) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var at []time.Duration
	for t := rng.ExpFloat64() / sloBaseRate; t < span.Seconds(); t += rng.ExpFloat64() / sloBaseRate {
		at = append(at, time.Duration(t*float64(time.Second)))
	}
	for b := time.Duration(0); b < span; b += sloBurstEvery {
		for i := 0; i < sloBurstSize; i++ {
			at = append(at, b+time.Duration(rng.Int63n(int64(sloBurstLen))))
		}
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	out := make([]arrival, len(at))
	for i := range out {
		req := server.LaunchRequest{
			Client:    fmt.Sprintf("t%d", rng.Intn(sloTenants)),
			Benchmark: benches[rng.Intn(len(benches))],
			Class:     "small",
			Priority:  1,
		}
		if rng.Intn(4) == 0 {
			req.Class = "large"
		}
		if rng.Intn(2) == 0 {
			req.Priority = lcPriority
			req.DeadlineMS = deadlineMS(cat.soloMS(req.Benchmark, req.Class), sloSlack)
		}
		out[i] = arrival{at: at[i], req: req}
	}
	return out
}

// graphSchedule is the graph-gateway schedule for [0, span): Poisson
// arrivals of preset model graphs, half of them carrying a deadline on
// the terminal stage.
func graphSchedule(seed int64, span time.Duration, cat catalog) ([]graphArrival, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []graphArrival
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / graphRate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out, nil
		}
		g, err := model.ByName(graphPresets[rng.Intn(len(graphPresets))])
		if err != nil {
			return nil, err
		}
		ga := graphArrival{
			at:     at,
			client: fmt.Sprintf("t%d", rng.Intn(graphTenants)),
			id:     fmt.Sprintf("g%d-%d", seed, i),
			graph:  g,
			lc:     rng.Intn(2) == 0,
		}
		if ga.lc {
			path, err := criticalPathMS(g, cat)
			if err != nil {
				return nil, err
			}
			g.DeadlineMS = deadlineMS(path, graphSlack)
		}
		terminal := g.Terminal().Name
		for _, s := range g.Stages {
			req := server.LaunchRequest{
				Client: ga.client, Benchmark: s.Bench, Class: s.Class, Priority: 1,
				Model: g.Name, Graph: ga.id, Stage: s.Name, After: s.After, Stages: len(g.Stages),
			}
			if ga.lc {
				req.Priority = lcPriority
				if s.Name == terminal {
					req.DeadlineMS = g.DeadlineMS
				}
			}
			ga.stages = append(ga.stages, req)
		}
		out = append(out, ga)
	}
}

// criticalPathMS is the longest chain of solo times through the graph.
func criticalPathMS(g *model.Graph, cat catalog) (float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := map[string]float64{}
	longest := 0.0
	for _, i := range order {
		s := g.Stages[i]
		start := 0.0
		for _, a := range s.After {
			start = max(start, finish[a])
		}
		finish[s.Name] = start + cat.soloMS(s.Bench, s.Class)
		longest = max(longest, finish[s.Name])
	}
	return longest, nil
}
