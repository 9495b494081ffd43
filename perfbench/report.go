package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// latencies collects the latencies (µs) of the phase's completed
// launches, all of them or only the deadline-bearing ones, keyed by
// send or due time.
func latencies(p *phase, lcOnly bool) []sample {
	var v []sample
	for _, o := range p.outs {
		if o.ok() && (!lcOnly || o.lc()) {
			v = append(v, sample{o.sent, float64(o.lat) / 1e3})
		}
	}
	return v
}

// graphLatencies are the completed graphs' latencies (ms); on workloads
// without graphs every completed launch is a one-stage graph.
func graphLatencies(p *phase) []sample {
	if p.graphs == nil {
		v := latencies(p, false)
		for i := range v {
			v[i].v /= 1e3
		}
		return v
	}
	var v []sample
	for _, g := range p.graphs {
		if g.ok {
			v = append(v, sample{g.due, float64(g.lat) / 1e6})
		}
	}
	return v
}

// values drops the sample times.
func values(s []sample) dist {
	v := make([]float64, len(s))
	for i, x := range s {
		v[i] = x.v
	}
	return newDist(v)
}

// Samples per slice for a sliced percentile: enough that the percentile
// has ten samples beyond it.
const (
	perSliceP99 = 1000
	perSliceP50 = 20
)

// perSliceRate is how many completions a slice of a rate must hold on
// average, so that one launch more or less moves its rate by about 1%.
const perSliceRate = 100

// sliceRates returns, per time slice, the completed launches per second
// and the CPU time per completed launch (µs). Where the window's slices
// hold fewer than perSliceRate completions on average, adjacent slices are
// merged until they do.
func sliceRates(m *measured) (rates, cpuPer []float64) {
	t := &m.p.tally
	group := 1
	if t.ok > 0 {
		group = min(slices, max(1, (perSliceRate*slices+t.ok-1)/t.ok))
	}
	w := m.span / slices
	for i := 0; i+group <= slices; i += group {
		n := 0
		for _, c := range t.done[i : i+group] {
			n += c
		}
		gw := w * time.Duration(group)
		rates = append(rates, float64(n)/gw.Seconds())
		if n > 0 {
			a := m.p.start.Add(time.Duration(i) * w)
			cpu := cpuAt(m.cpuMarks, a.Add(gw)) - cpuAt(m.cpuMarks, a)
			cpuPer = append(cpuPer, cpu/1e3/float64(n))
		}
	}
	return rates, cpuPer
}

// endToEnd fills the metrics a user of the system sees, except replay
// throughput (replayMetrics). Latency and CPU are the least-disturbed
// figures over the window's time slices (leastDisturbed); so is a closed
// loop's rate, while an open loop's is its completions over the window,
// which the fixed schedule and the refusals decide. Shares are over the
// whole window. The p99s, the mean over slices of each slice's p99
// (slicedMean), go to the report only.
func (r *runner) endToEnd(m *measured) {
	res, p, t := r.res, m.p, &m.p.tally
	lcTried, lcMet := t.lcTried, t.lcMet
	if p.graphs != nil {
		lcTried, lcMet = 0, 0
	}
	for _, g := range p.graphs {
		if g.lc {
			lcTried++
			if g.attained {
				lcMet++
			}
		}
	}
	all, lc, graphs := latencies(p, false), latencies(p, true), graphLatencies(p)
	rates, cpuPer := sliceRates(m)
	rate := ratio(float64(t.ok), m.span.Seconds())
	if r.w.kind == closedTCP {
		rate = leastDisturbed(rates, true)
	}

	res.set("setup_s", median(r.setups))
	res.set("launches_per_s", rate)
	res.set("launch_p50_us", slicedQuiet(all, m.span, perSliceP50, p50))
	res.set("ok_share", ratio(float64(t.ok), float64(t.attempted)))
	res.set("lc_slo_attained_share", ratio(float64(lcMet), float64(lcTried)))
	res.set("graph_p50_ms", slicedQuiet(graphs, m.span, perSliceP50, p50))
	res.set("cpu_us_per_launch", leastDisturbed(cpuPer, false))
	res.set("peak_heap_mb", m.heapMB)

	res.say("workload %s seed %d: %d launches in %.2fs, statuses %s", r.w.name, r.seed, t.attempted, p.elapsed().Seconds(), statusMix(p))
	res.say("fail_share: %.6f (non-2xx plus transport errors over attempts; ok_share is its complement)", 1-ratio(float64(t.ok), float64(t.attempted)))
	res.say("latency distributions below are over %d sampled successes", len(all))
	res.say("whole-window launch latency: %s", values(all).describe("us", 99))
	res.say("launch_p99_us %.1f us, lc_p99_us %.1f us, graph_p99_ms %.3f ms (slice means, not gated)",
		slicedMean(all, m.span, perSliceP99, p99), slicedMean(lc, m.span, perSliceP99, p99),
		slicedMean(graphs, m.span, perSliceP99, p99))
	res.say("whole-window lc latency: %s", values(lc).describe("us", 99))
	res.say("whole-window graph latency: %s", values(graphs).describe("ms", 99))
	res.say("whole-window rate %.1f/s, cpu %.2fus per launch; median slice: rate %.1f/s, launch p50 %.2fus, cpu %.2fus per launch",
		ratio(float64(t.ok), p.elapsed().Seconds()), ratio(float64(m.cpu)/1e3, float64(t.ok)),
		median(rates), median(perSlice(all, m.span, perSliceP50, p50)), median(cpuPer))
	res.say("setup: median of %d: %.4fs (all %.4f)", setupRepeats, median(r.setups), r.setups)
	r.validity(m)
}

// maxLateUS is the generator lateness (p99) beyond which an open-loop
// run is labelled client-bound. Sleeps on small virtual machines overshoot
// by about a millisecond even when idle, so the limit sits well above that.
const maxLateUS = 10000

// validity prints the diagnostics that say whether a run measured the
// program or the load generator.
func (r *runner) validity(m *measured) {
	res, p := r.res, m.p
	late := newDist(p.late)
	if r.w.kind != closedTCP {
		res.say("gen.late_us: %s", late.describe("us", 99))
	}
	refused := p.tally.status(http.StatusTooManyRequests)
	lateP99, _, _ := late.tail(99)
	switch {
	case r.w.kind == closedTCP && refused == 0:
		res.say("bound: client (closed loop with %d connections; the server never answered 429)", runtime.NumCPU())
	case r.w.kind != closedTCP && lateP99 > maxLateUS:
		res.say("bound: client (open-loop generator p99 lateness %.0fus > %dus)", lateP99, maxLateUS)
	case refused > 0:
		res.say("bound: server (%d launches refused with 429)", refused)
	default:
		res.say("bound: offered load (the generator kept its schedule and the server kept up)")
	}
}

// perLayer fills the traced run's per-layer metrics.
func (r *runner) perLayer(untraced, m *measured) {
	res, p := r.res, m.p
	ok := p.tally.ok
	n := float64(ok)
	spans := r.tr.snapshot()
	rows, gap := selfReport(spans)
	self := map[string]float64{}
	for _, row := range rows {
		self[row.Name] = ratio(float64(row.Self)/1e3, n)
	}
	byName := spanDurations(spans)
	rtt := byName["client.rtt"]
	handler, gwh := byName["server.handler"], byName["gateway.handler"]
	selfs := selfTimes(spans)
	var netSelf []float64
	for _, s := range spans {
		if s.Name == "client.rtt" {
			netSelf = append(netSelf, float64(selfs[s.ID])/1e3)
		}
	}
	var gwSelf []float64
	for _, s := range spans {
		if s.Name == "gateway.handler" {
			gwSelf = append(gwSelf, float64(selfs[s.ID])/1e3)
		}
	}
	var qwait []float64
	for _, o := range p.outs {
		if o.ok() {
			qwait = append(qwait, float64(o.qwaitNS)/1e3)
		}
	}
	qw := newDist(qwait)
	d := func(f string) float64 { return familyDelta(m.mBefore, m.mAfter, f) }
	attempts := float64(p.tally.attempted)
	graphs := float64(len(p.graphs))
	handlerP99, _, _ := handler.tail(99)
	gwP99, _, _ := gwh.tail(99)
	qwP99, _, _ := qw.tail(99)
	lateP99, _, _ := newDist(p.late).tail(99)

	u := untraced.p
	res.set("launch_p99_us", slicedMean(latencies(u, false), untraced.span, perSliceP99, p99))
	res.set("lc_p99_us", slicedMean(latencies(u, true), untraced.span, perSliceP99, p99))
	res.set("graph_p99_ms", slicedMean(graphLatencies(u), untraced.span, perSliceP99, p99))
	res.set("net.rtt_us_p50", rtt.pct(50))
	res.set("net.self_us_p50", newDist(netSelf).pct(50))
	res.set("net.conns_accepted_per_klaunch", ratio(float64(m.accepted)*1000, n))
	res.set("server.handler_us_p50", handler.pct(50))
	res.set("server.handler_us_p99", handlerP99)
	res.set("server.admission_wait_us_mean", qw.mean())
	res.set("server.admission_wait_us_p99", qwP99)
	res.set("server.admission_batch_mean",
		ratio(d("flep_server_admission_batch_size_sum"), d("flep_server_admission_batch_size_count")))
	res.set("server.loop_steps_per_launch", ratio(float64(m.steps), n))
	res.set("server.queue_full_share",
		ratio(float64(m.cAfter["rejected_queue_full"]-m.cBefore["rejected_queue_full"]), attempts))
	res.set("server.shed_share",
		ratio(float64(m.cAfter["rejected_best_effort_shed"]-m.cBefore["rejected_best_effort_shed"]), attempts))
	res.set("runtime.preemptions_per_launch", ratio(d("flep_runtime_preemptions_total"), n))
	res.set("runtime.dispatches_per_launch", ratio(d("flep_runtime_dispatches_total"), n))
	res.set("runtime.queue_wait_virtual_us_mean",
		1e6*ratio(d("flep_runtime_queue_wait_seconds_sum"), d("flep_runtime_queue_wait_seconds_count")))
	res.set("gpu.ctas_per_launch", ratio(d("flep_device_ctas_placed_total"), n))
	res.set("gpu.drains_per_launch", ratio(d("flep_device_drains_total"), n))
	res.set("gateway.handler_us_p50", gwh.pct(50))
	res.set("gateway.handler_us_p99", gwP99)
	res.set("gateway.self_us_mean", newDist(gwSelf).mean())
	res.set("gateway.retries_per_launch", ratio(d("flep_gateway_retries_total"), d("flep_gateway_launches_total")))
	res.set("model.parked_per_graph", ratio(d("flep_model_stages_parked_total"), graphs))
	res.set("model.evictions", d("flep_model_evictions_total"))
	res.set("trace.entries_per_launch", ratio(float64(m.traceAdded), n))
	res.set("trace.evictions_per_launch", ratio(float64(m.traceEvict), n))
	res.set("obs.scrape_us_p50", newDist(m.scrapeUS).pct(50))
	res.set("core.offline_s", median(r.offline))
	res.set("go.allocs_per_launch", ratio(m.goAfter.uint(0)-m.goBefore.uint(0), n))
	res.set("go.bytes_per_launch", ratio(m.goAfter.uint(1)-m.goBefore.uint(1), n))
	res.set("go.gc_pause_us_p99", 1e6*histP99(m.goBefore, m.goAfter, 3))
	res.set("go.gc_cycles_per_klaunch", ratio(1000*(m.goAfter.uint(2)-m.goBefore.uint(2)), n))
	res.set("go.sched_latency_us_p99", 1e6*histP99(m.goBefore, m.goAfter, 4))
	res.set("gen.late_us_p99", lateP99)
	root := self["client.rtt"] + self["gen.request"] + self["gen.stage"]
	server := self["server.handler"] + self["gateway.handler"]
	res.set("self.client_us_per_launch", root)
	res.set("self.gateway_us_per_launch", self["gateway.handler"])
	res.set("self.server_us_per_launch", self["server.handler"])
	cpuPer := ratio(float64(m.cpu)/1e3, n)
	res.set("cpu.client_us_per_launch", cpuPer*ratio(root, root+server))
	res.set("cpu.server_us_per_launch", cpuPer*ratio(server, root+server))
	tracedRate := ratio(n, p.elapsed().Seconds())
	untracedRate := ratio(float64(untraced.p.tally.ok), untraced.p.elapsed().Seconds())
	res.set("bench.untraced_launches_per_s", untracedRate)
	res.set("bench.traced_launches_per_s", tracedRate)
	res.set("bench.trace_overhead_share", 1-ratio(tracedRate, untracedRate))
	res.set("bench.self_gap_share", gap)

	res.say("workload %s seed %d traced: %d launches in %.2fs, statuses %s", r.w.name, r.seed, p.tally.attempted, p.elapsed().Seconds(), statusMix(p))
	res.say("tracing overhead on the same schedule: %.1f launches/s untraced vs %.1f traced; launch p50 %.1fus vs %.1fus; cpu %.1fus vs %.1fus per launch",
		untracedRate, tracedRate, values(latencies(untraced.p, false)).pct(50), values(latencies(p, false)).pct(50),
		ratio(float64(untraced.cpu)/1e3, float64(untraced.p.tally.ok)), cpuPer)
	res.say("per-layer self time over the traced window:")
	for _, line := range renderSelf(rows, ok) {
		res.say("  %s", line)
	}
	res.say("self times account for the root spans within %.3f%%", 100*gap)
	if gap > 0.05 {
		r.res.problems = append(r.res.problems, fmt.Sprintf("per-layer self times leave a %.1f%% gap against the root spans (limit 5%%)", 100*gap))
	}
	res.say("cpu split by span self time (an attribution, not a per-goroutine measurement): client %.1fus server %.1fus per launch",
		res.metrics["cpu.client_us_per_launch"].Value, res.metrics["cpu.server_us_per_launch"].Value)
	r.validity(m)
}

// spanDurations groups span durations (µs) by name.
func spanDurations(spans []Span) map[string]dist {
	raw := map[string][]float64{}
	for _, s := range spans {
		raw[s.Name] = append(raw[s.Name], float64(s.dur())/1e3)
	}
	out := map[string]dist{}
	for k, v := range raw {
		out[k] = newDist(v)
	}
	return out
}
