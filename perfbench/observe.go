package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"flep/internal/obs"
)

// scrape reads GET /metrics from h in-process and parses it.
func scrape(h http.Handler) (obs.Snapshot, error) {
	rec := serveInProcess(h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	return obs.ParseText(bytes.NewReader(rec.Body.Bytes()))
}

// familyDelta is the change of a family's total (summed over labels, so
// over nodes and devices too) between two scrapes.
func familyDelta(before, after obs.Snapshot, family string) float64 {
	return after.SumFamily(family) - before.SumFamily(family)
}

// scraper scrapes /metrics once a second, as a monitoring system would,
// and keeps the scrape durations.
type scraper struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	us   []float64
	err  error
}

func startScraper(h http.Handler, tr *tracer) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			d, err := tr.timed("obs.scrape", func() error { _, err := scrape(h); return err })
			s.mu.Lock()
			s.us = append(s.us, float64(d)/1e3)
			if err != nil {
				s.err = err
			}
			s.mu.Unlock()
		}
	}()
	return s
}

// halt stops the scraper and waits for it.
func (s *scraper) halt() ([]float64, error) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.us, s.err
}

// cpuMark is the process CPU time at an instant.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// cpuMarks samples the process CPU time every interval until halted.
type cpuMarks struct {
	stop  chan struct{}
	done  chan struct{}
	marks []cpuMark
}

func startCPUMarks(every time.Duration) *cpuMarks {
	c := &cpuMarks{stop: make(chan struct{}), done: make(chan struct{})}
	c.marks = []cpuMark{{time.Now(), cpuTime()}}
	go func() {
		defer close(c.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.marks = append(c.marks, cpuMark{time.Now(), cpuTime()})
			}
		}
	}()
	return c
}

// halt stops the sampling and returns the marks, the first taken at
// start and the last now.
func (c *cpuMarks) halt() []cpuMark {
	close(c.stop)
	<-c.done
	return append(c.marks, cpuMark{time.Now(), cpuTime()})
}

// cpuAt is the process CPU time at t, interpolated between the marks
// around it (a ticker drops ticks on a busy host, so marks are not evenly
// spaced), and clamped to the first and last mark.
func cpuAt(marks []cpuMark, t time.Time) float64 {
	i := sort.Search(len(marks), func(i int) bool { return !marks[i].at.Before(t) })
	switch {
	case i == 0:
		return float64(marks[0].cpu)
	case i == len(marks):
		return float64(marks[len(marks)-1].cpu)
	}
	a, b := marks[i-1], marks[i]
	f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return float64(a.cpu) + f*float64(b.cpu-a.cpu)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Go runtime metrics read around a phase.
var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

type goSnap []metrics.Sample

func readGo() goSnap {
	s := make(goSnap, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (s goSnap) uint(i int) float64 {
	if s[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[i].Value.Uint64())
}

// histP99 is the 99th percentile of a runtime histogram's growth between
// two reads, as the upper bound of the bucket that holds it.
func histP99(before, after goSnap, i int) float64 {
	if after[i].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	a := after[i].Value.Float64Histogram()
	var prev []uint64
	if before[i].Value.Kind() == metrics.KindFloat64Histogram {
		prev = before[i].Value.Float64Histogram().Counts
	}
	delta := make([]uint64, len(a.Counts))
	var total uint64
	for j, c := range a.Counts {
		delta[j] = c
		if j < len(prev) {
			delta[j] -= prev[j]
		}
		total += delta[j]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for j, c := range delta {
		cum += c
		if cum >= want {
			if hi := a.Buckets[j+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return a.Buckets[j]
		}
	}
	return 0
}

// heapSampler samples the heap in use (objects plus free space in in-use
// spans) every heapEvery while a phase runs.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const heapEvery = 10 * time.Millisecond

func startHeapSampler(span time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}),
		samples: make([]float64, 0, 2*int(span/heapEvery)+16)}
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()+s[1].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// halt stops the sampler and returns the peak heap in MiB: the highest
// percentile of the samples (at most the 99th) that has ten samples above
// it, so that no single sample at the top of one garbage-collection cycle
// sets the figure.
func (h *heapSampler) halt() float64 {
	close(h.stop)
	<-h.done
	v, _, _ := newDist(h.samples).tail(99)
	return v
}

// hostFacts describes the machine a run was measured on.
func hostFacts() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
