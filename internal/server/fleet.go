package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flep/internal/core"
	"flep/internal/kernels"
	"flep/internal/trace"
)

// FleetConfig parameterizes a sharded daemon: N independent device shards
// behind one front door.
type FleetConfig struct {
	Config
	// Devices is the number of device shards (default 1). Each shard owns
	// its own core.System, simulated device, and event-loop goroutine, so
	// shards simulate concurrently on separate cores.
	Devices int
	// Affinity pins each client to the shard chosen for its first launch,
	// so a tenant's kernels contend (and preempt) on one device like the
	// paper's co-run scenarios. Off, every launch is placed independently
	// by memory-aware least-loaded scoring.
	Affinity bool
}

// Fleet fronts N device shards with a placement router and aggregated
// telemetry. It is the serving-stack shape of a multi-GPU FLEP node: the
// paper's runtime engine (§5) owns one GPU; the fleet replicates that
// engine per device and adds the layer the paper leaves to the cluster —
// deciding which device each intercepted launch lands on.
type Fleet struct {
	cfg       FleetConfig
	shards    []*Server
	benches   map[string]*kernels.Benchmark
	startReal time.Time

	// mu guards the affinity table. Placement decisions run under it too,
	// so two concurrent first-launches of one client cannot pin the client
	// to different shards.
	mu       sync.Mutex
	affinity map[string]int

	// rr rotates the tie-break start of pickShard. Load is only visible
	// once a launch is enqueued, so a burst of concurrent placements all
	// read equal (stale) loads; a fixed lowest-index tie-break would herd
	// the whole burst onto shard 0.
	rr atomic.Int64
}

// NewFleet builds the offline artifacts once, clones the system per shard,
// and starts one event loop per device.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg.Config.applyDefaults()
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	benchs, err := resolveBenchmarks(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(cfg.Params)
	for _, b := range benchs {
		start := time.Now()
		if err := sys.Offline([]*kernels.Benchmark{b}); err != nil {
			return nil, fmt.Errorf("server: offline %s: %w", b.Name, err)
		}
		a := sys.Artifacts(b.Name)
		cfg.Logf("offline %-5s L=%-4d overhead=%.2f%% preempt=%v (%v)",
			b.Name, a.L, a.TunedOverhead*100, a.PreemptOverhead.Round(time.Microsecond),
			time.Since(start).Round(time.Millisecond))
	}
	return NewFleetWithSystem(sys, cfg)
}

// NewFleetWithSystem starts a fleet over an existing system (whose Offline
// phase must already cover cfg.Benchmarks). Each shard receives its own
// Clone of the system, so the shards' prediction caches never race.
func NewFleetWithSystem(sys *core.System, cfg FleetConfig) (*Fleet, error) {
	cfg.Config.applyDefaults()
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	benchs, err := resolveBenchmarks(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:       cfg,
		benches:   map[string]*kernels.Benchmark{},
		affinity:  map[string]int{},
		startReal: time.Now(),
	}
	for _, b := range benchs {
		f.benches[b.Name] = b
	}
	for i := 0; i < cfg.Devices; i++ {
		shardCfg := cfg.Config
		shardCfg.Device = i
		shardCfg.FleetShards = cfg.Devices
		s, err := NewWithSystem(sys.Clone(), shardCfg)
		if err != nil {
			for _, prev := range f.shards {
				_ = prev.Shutdown(context.Background())
			}
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, s)
	}
	cfg.Logf("fleet: %d device shard(s), affinity=%v", cfg.Devices, cfg.Affinity)
	return f, nil
}

// Devices returns the shard count.
func (f *Fleet) Devices() int { return len(f.shards) }

// Shard returns the i-th device shard (tests and embedders).
func (f *Fleet) Shard(i int) *Server { return f.shards[i] }

// workingSet computes the invocation's resident footprint for placement
// (the same /8 model Server.admit applies), or 0 when the request is not
// placeable by memory (unknown benchmark or class — the shard's own
// validation will reject it).
func (f *Fleet) workingSet(req LaunchRequest) int64 {
	b, ok := f.benches[req.Benchmark]
	if !ok {
		return 0
	}
	class, err := parseClass(req.Class)
	if err != nil {
		return 0
	}
	in := b.Input(class)
	if req.TasksOverride > 0 {
		in.Tasks = req.TasksOverride
		in.Bytes = int64(in.Tasks) * b.BytesPerTask
	}
	return in.Bytes / 8
}

// pickShard scores the shards for one launch: among shards whose free
// device memory fits the working set, the least loaded wins (queue depth
// plus admitted-but-unfinished launches); if no shard fits, fall back to
// least loaded overall and let the runtime's own memory admission queue
// the launch until space frees up. Ties break toward a rotating start
// index, so a burst of placements made before any of them shows up in
// the load signal still spreads round-robin.
func (f *Fleet) pickShard(req LaunchRequest) int {
	need := f.workingSet(req)
	n := len(f.shards)
	start := int(f.rr.Add(1)-1) % n
	best, bestLoad := -1, int64(math.MaxInt64)
	fallback, fallbackLoad := -1, int64(math.MaxInt64)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		s := f.shards[i]
		load := s.Load()
		if load < fallbackLoad {
			fallback, fallbackLoad = i, load
		}
		if need > 0 && s.MemoryAvailable() < need {
			continue
		}
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		return fallback
	}
	return best
}

// route places one launch, honoring session affinity when enabled.
// Graph-bearing requests always pin through the affinity table, even
// when affinity is off: the pending-dependency state of a client's
// graphs lives on one shard, so every stage of every graph the client
// submits must land there or prerequisites would never be observed.
func (f *Fleet) route(req LaunchRequest, client string) *Server {
	if !f.cfg.Affinity && req.Graph == "" {
		return f.shards[f.pickShard(req)]
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.affinity[client]
	if !ok {
		i = f.pickShard(req)
		f.affinity[client] = i
	}
	return f.shards[i]
}

// AffinityFor reports the shard a client is pinned to (tests).
func (f *Fleet) AffinityFor(client string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.affinity[client]
	return i, ok
}

// Shutdown drains every shard concurrently and returns the first error.
func (f *Fleet) Shutdown(ctx context.Context) error {
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i, s := range f.shards {
		wg.Add(1)
		go func(i int, s *Server) {
			defer wg.Done()
			errs[i] = s.Shutdown(ctx)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Pause parks every shard's event loop.
func (f *Fleet) Pause() error {
	for _, s := range f.shards {
		if err := s.Pause(); err != nil {
			return err
		}
	}
	return nil
}

// Resume unparks every shard's event loop.
func (f *Fleet) Resume() error {
	for _, s := range f.shards {
		if err := s.Resume(); err != nil {
			return err
		}
	}
	return nil
}

// Counters sums the shards' request accounting. The fleet-wide
// exactly-once invariant is enqueued == completed + submit_errors at
// rest, same as a single shard: placement never duplicates or drops a
// launch, it only chooses which shard's queue it enters.
func (f *Fleet) Counters() map[string]int64 {
	total := map[string]int64{}
	for _, s := range f.shards {
		for k, v := range s.Counters() {
			total[k] += v
		}
	}
	return total
}

// addCounters folds one shard's counters into the aggregate.
func addCounters(agg *counters, c counters) {
	agg.Enqueued += c.Enqueued
	agg.Completed += c.Completed
	agg.SubmitErrors += c.SubmitErrors
	agg.RejectedFull += c.RejectedFull
	agg.RejectedDraining += c.RejectedDraining
	agg.RejectedInvalid += c.RejectedInvalid
	agg.RejectedShed += c.RejectedShed
	agg.TimedOut += c.TimedOut
	agg.Canceled += c.Canceled
	agg.SLOAttained += c.SLOAttained
	agg.SLOMissed += c.SLOMissed
	agg.DepCanceled += c.DepCanceled
	agg.RejectedDepFull += c.RejectedDepFull
}

// Status aggregates the shards: summed counters and queue figures at the
// top level (so single-device clients keep working unchanged), per-shard
// breakdowns under Devices.
func (f *Fleet) Status() Status {
	devs := make([]Status, 0, len(f.shards))
	for _, s := range f.shards {
		devs = append(devs, s.statusSnapshot())
	}
	agg := Status{
		Policy:        f.cfg.Policy,
		Spatial:       f.cfg.Spatial,
		Benchmarks:    devs[0].Benchmarks,
		UptimeMS:      time.Since(f.startReal).Milliseconds(),
		Paused:        true,
		ExactlyOnceOK: true,
	}
	for _, d := range devs {
		addCounters(&agg.Counters, d.Counters)
		agg.Models = mergeModelRows(agg.Models, d.Models)
		// Re-derive the fleet's mean SLO margin from completion-weighted
		// shard means before the counts change.
		if n0, n1 := agg.SLO.Attained+agg.SLO.Missed, d.SLO.Attained+d.SLO.Missed; n0+n1 > 0 {
			agg.SLO.MeanMarginUS = (agg.SLO.MeanMarginUS*float64(n0) + d.SLO.MeanMarginUS*float64(n1)) / float64(n0+n1)
		}
		agg.SLO.Attained += d.SLO.Attained
		agg.SLO.Missed += d.SLO.Missed
		agg.SLO.BestEffortShed += d.SLO.BestEffortShed
		agg.QueueLen += d.QueueLen
		agg.QueueCap += d.QueueCap
		agg.MemoryFreeBytes += d.MemoryFreeBytes
		agg.Sessions += d.Sessions
		agg.TraceEntries += d.TraceEntries
		agg.TraceDropped += d.TraceDropped
		agg.Paused = agg.Paused && d.Paused
		agg.Draining = agg.Draining || d.Draining
		agg.ExactlyOnceOK = agg.ExactlyOnceOK && d.ExactlyOnceOK
		if d.VirtualNowUS > agg.VirtualNowUS {
			agg.VirtualNowUS = d.VirtualNowUS
		}
	}
	if n := agg.SLO.Attained + agg.SLO.Missed; n > 0 {
		agg.SLO.AttainRate = float64(agg.SLO.Attained) / float64(n)
	}
	if len(devs) > 1 {
		agg.Devices = devs
	}
	return agg
}

// SessionSnapshots merges the shards' per-client sessions by ID: counters
// sum, means re-weight by completions, and Devices lists every shard the
// client's launches touched (exactly one under affinity).
func (f *Fleet) SessionSnapshots() []SessionSnapshot {
	merged := map[string]*SessionSnapshot{}
	for i, s := range f.shards {
		for _, snap := range s.SessionSnapshots() {
			m, ok := merged[snap.ID]
			if !ok {
				c := snap
				c.Devices = []int{i}
				merged[snap.ID] = &c
				continue
			}
			// Re-derive the merged means from completion-weighted sums
			// before the counts change.
			total := m.Completed + snap.Completed
			if total > 0 {
				m.MeanTurnUS = (m.MeanTurnUS*float64(m.Completed) + snap.MeanTurnUS*float64(snap.Completed)) / float64(total)
				m.MeanWaitUS = (m.MeanWaitUS*float64(m.Completed) + snap.MeanWaitUS*float64(snap.Completed)) / float64(total)
			}
			if n0, n1 := m.SLOAttained+m.SLOMissed, snap.SLOAttained+snap.SLOMissed; n0+n1 > 0 {
				m.MeanSLOMarginUS = (m.MeanSLOMarginUS*float64(n0) + snap.MeanSLOMarginUS*float64(n1)) / float64(n0+n1)
			}
			m.Launches += snap.Launches
			m.InFlight += snap.InFlight
			m.Completed += snap.Completed
			m.SubmitErrors += snap.SubmitErrors
			m.RejectedFull += snap.RejectedFull
			m.RejectedDraining += snap.RejectedDraining
			m.RejectedInvalid += snap.RejectedInvalid
			m.RejectedShed += snap.RejectedShed
			m.TimedOut += snap.TimedOut
			m.Canceled += snap.Canceled
			m.DepCanceled += snap.DepCanceled
			m.RejectedDepFull += snap.RejectedDepFull
			m.SLOAttained += snap.SLOAttained
			m.SLOMissed += snap.SLOMissed
			m.Preemptions += snap.Preemptions
			if snap.FirstSeenUnix < m.FirstSeenUnix {
				m.FirstSeenUnix = snap.FirstSeenUnix
			}
			if snap.LastFinishUS > m.LastFinishUS {
				m.LastFinishUS = snap.LastFinishUS
			}
			m.HostState = hostStateFor(m.Launches, m.Completed, m.SubmitErrors)
			m.Devices = append(m.Devices, i)
		}
	}
	out := make([]SessionSnapshot, 0, len(merged))
	for _, m := range merged {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TraceEntries merges the shards' trace logs into one time-ordered stream,
// stamping each entry with its device index.
func (f *Fleet) TraceEntries(kind string) []trace.Entry {
	streams := make([][]trace.Entry, 0, len(f.shards))
	for i, s := range f.shards {
		tl := s.TraceLog()
		if tl == nil {
			continue
		}
		entries := tl.Filter(kind)
		for j := range entries {
			entries[j].Device = i
		}
		streams = append(streams, entries)
	}
	// trace.Merge orders by (Time, Node, Device); shard streams carry no
	// Node, so the tie-break reduces to the documented (Time, Device).
	return trace.Merge(streams)
}

// Handler returns the fleet's HTTP API: the same surface as a single
// Server, with launches routed by placement and reads aggregated across
// shards.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/launch", f.handleLaunch)
	mux.HandleFunc("GET /v1/status", f.handleStatus)
	mux.HandleFunc("GET /v1/sessions", f.handleSessions)
	mux.HandleFunc("GET /v1/benchmarks", f.handleBenchmarks)
	mux.HandleFunc("GET /v1/trace", f.handleTrace)
	mux.HandleFunc("POST /v1/pause", f.handlePause)
	mux.HandleFunc("POST /v1/resume", f.handleResume)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	return mux
}

func (f *Fleet) handleLaunch(w http.ResponseWriter, r *http.Request) {
	req, client, err := decodeLaunch(w, r)
	if err != nil {
		// A body that never parsed has no placement signal; account the
		// reject on shard 0 so fleet sums still cover every outcome.
		f.shards[0].account("", outRejectedInvalid)
		writeJSON(w, http.StatusBadRequest, apiError{"bad request body: " + err.Error()})
		return
	}
	f.route(req, client).serveLaunch(w, r, req, client)
}

func (f *Fleet) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Status())
}

func (f *Fleet) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.SessionSnapshots())
}

func (f *Fleet) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.shards[0].info)
}

func (f *Fleet) handleTrace(w http.ResponseWriter, r *http.Request) {
	if f.shards[0].TraceLog() == nil {
		writeJSON(w, http.StatusNotFound, apiError{"trace disabled; start flepd with -trace"})
		return
	}
	entries := f.TraceEntries(r.URL.Query().Get("kind"))
	if n, err := strconv.Atoi(r.URL.Query().Get("limit")); err == nil && n > 0 && n < len(entries) {
		entries = entries[len(entries)-n:]
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, entries)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, e := range entries {
			if _, err := io.WriteString(w, e.Text()); err != nil {
				return
			}
		}
	default:
		writeJSON(w, http.StatusBadRequest, apiError{"unknown format (want json or text)"})
	}
}

func (f *Fleet) handlePause(w http.ResponseWriter, r *http.Request) {
	if err := f.Pause(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"paused": true})
}

func (f *Fleet) handleResume(w http.ResponseWriter, r *http.Request) {
	if err := f.Resume(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"paused": false})
}

// handleHealthz is pure liveness: a draining fleet is still alive (its
// shards are finishing accepted work), so the answer is 200 for as long
// as the process can serve HTTP at all. Routing decisions belong to
// /readyz.
func (f *Fleet) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is the routing signal: it flips to 503 the moment any
// shard begins draining — before in-flight work finishes — so a gateway
// stops sending new launches here immediately.
func (f *Fleet) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, s := range f.shards {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

// handleMetrics renders every shard's registry into one exposition, each
// sample labeled with its device index. Families repeat their HELP/TYPE
// header once per shard; obs.ParseText (and Prometheus' text parser)
// skip comment lines, so the samples merge cleanly.
func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for i, s := range f.shards {
		if err := s.Registry().WritePrometheus(w, "device", strconv.Itoa(i)); err != nil {
			return
		}
	}
}
