package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"

	"flep/internal/replay"
)

// The recording is replayed at least minReplays times (the summaries must
// be byte-identical) and until the replays add up to minReplaySeconds.
const (
	minReplays       = 3
	maxReplays       = 20
	minReplaySeconds = 2.0
)

// recorded is what the replay reads, and what it must reproduce.
type recorded struct {
	path    string
	records int // launches the live run enqueued, each of which the recording must hold
	done    int // of which it completed
	dropped float64
}

// replayed is the outcome of loading and replaying a recording.
type replayed struct {
	records int
	live    int // launches the recording should hold
	loadS   float64
	setupS  float64
	runS    []float64
	dropped float64
}

// launchesPerS is replay throughput over the fastest replay: the work is
// deterministic, so the fastest run is the one least disturbed.
func (rp *replayed) launchesPerS() float64 {
	if len(rp.runS) == 0 {
		return 0
	}
	return ratio(float64(rp.records), newDist(rp.runS)[0])
}

// recording describes the flepd recording of the whole live run.
func (r *runner) recording(m *measured) *recorded {
	c := r.st.counters()
	return &recorded{path: r.st.recPath, records: int(c["enqueued"]), done: int(c["completed"]),
		dropped: familyDelta(m.mBefore, m.mAfter, "flep_recorder_dropped_total")}
}

// replay is the read side of the trace and replay layers: it loads the
// recording and replays it as recorded (step-exact). Every replay must
// complete exactly the launches the live run completed, out of as many
// records as it enqueued, without divergence and with byte-identical
// summaries.
func (r *runner) replay(rec *recorded) (*replayed, error) {
	out := &replayed{live: rec.records, dropped: rec.dropped}
	var t *replay.Trace
	d, err := r.tr.timed("replay.load", func() (err error) { t, err = replay.Load(rec.path); return err })
	if err != nil {
		return nil, err
	}
	out.loadS, out.records = d.Seconds(), len(t.Records)
	var rp *replay.Replayer
	d, err = r.tr.timed("replay.setup", func() (err error) { rp, err = replay.NewReplayer(t, replay.ReplayerOptions{}); return err })
	if err != nil {
		return nil, err
	}
	out.setupS = d.Seconds()
	var summaries [][]byte
	total := 0.0
	for i := 0; i < maxReplays && (i < minReplays || total < minReplaySeconds); i++ {
		var s *replay.Summary
		runtime.GC() // start each replay from the same heap
		d, err := r.tr.timed("replay.run", func() (err error) { s, err = rp.Run(replay.ReplayConfig{Seed: r.seed}); return err })
		if err != nil {
			return nil, err
		}
		out.runS = append(out.runS, d.Seconds())
		total += d.Seconds()
		b, _ := json.Marshal(s)
		summaries = append(summaries, b)
		if i > 0 {
			continue
		}
		if s.Records != rec.records || s.Completed != rec.done {
			r.res.problems = append(r.res.problems, fmt.Sprintf("replay: %d records / %d completed, live %d / %d",
				s.Records, s.Completed, rec.records, rec.done))
		}
		if s.Divergence != (replay.Divergence{}) {
			r.res.problems = append(r.res.problems, fmt.Sprintf("replay diverged: %+v", s.Divergence))
		}
		if s.Mode != replay.ModeExact {
			r.res.problems = append(r.res.problems, "replay of the flepd recording ran in mode "+s.Mode)
		}
	}
	for _, b := range summaries[1:] {
		if !bytes.Equal(summaries[0], b) {
			r.res.problems = append(r.res.problems, "replay summaries of one recording differ")
			break
		}
	}
	return out, nil
}

// replayMetrics reports the replay layers in a traced run; they read 0 on
// workloads that record nothing.
func (r *runner) replayMetrics(rp *replayed, traced bool) {
	if rp == nil {
		rp = &replayed{}
	} else {
		r.res.say("replay: %d records, %.1f launches/s over the fastest of runs %.4f s", rp.records, rp.launchesPerS(), rp.runS)
	}
	if !traced {
		return
	}
	res := r.res
	res.set("replay_launches_per_s", rp.launchesPerS())
	res.set("runtime.replay_ns_per_launch", 1e9*ratio(1, rp.launchesPerS()))
	res.set("replay.records_per_launch", ratio(float64(rp.records), float64(rp.live)))
	res.set("replay.dropped", rp.dropped)
	res.set("replay.load_s", rp.loadS)
	res.set("replay.setup_s", rp.setupS)
}
