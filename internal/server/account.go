package server

// outcome is one launch-outcome family. Every launch is accounted by
// account calls only: accepted work is counted enqueued once and then
// completed or submit_error once (with timed_out/canceled noted on the
// side when its handler stops waiting); every other launch ends in
// exactly one reject or dep_canceled family.
type outcome int

const (
	outEnqueued outcome = iota
	outCompleted
	outSubmitError
	outRejectedFull
	outRejectedDraining
	outRejectedInvalid
	outRejectedShed
	outTimedOut
	outCanceled
	outDepCanceled
	outRejectedDepFull
	numOutcomes
)

// outcomes names every family once: key is its /v1/status counters key
// (and Counters() key), label its flep_server_launches_total{outcome}
// value, and accepted whether it is accepted work, which materializes
// the client's session.
var outcomes = [numOutcomes]struct {
	key, label string
	accepted   bool
}{
	outEnqueued:         {"enqueued", "enqueued", true},
	outCompleted:        {"completed", "completed", true},
	outSubmitError:      {"submit_errors", "submit_error", true},
	outRejectedFull:     {"rejected_queue_full", "rejected_queue_full", false},
	outRejectedDraining: {"rejected_draining", "rejected_draining", false},
	outRejectedInvalid:  {"rejected_invalid", "rejected_invalid", false},
	outRejectedShed:     {"rejected_best_effort_shed", "rejected_best_effort_shed", false},
	outTimedOut:         {"timed_out", "timed_out", true},
	outCanceled:         {"canceled", "canceled", true},
	outDepCanceled:      {"dep_canceled", "dep_canceled", false},
	outRejectedDepFull:  {"rejected_dep_table_full", "rejected_dep_table_full", false},
}

// field returns the counters field family o is tallied in.
func (c *counters) field(o outcome) *int64 {
	return [numOutcomes]*int64{
		outEnqueued:         &c.Enqueued,
		outCompleted:        &c.Completed,
		outSubmitError:      &c.SubmitErrors,
		outRejectedFull:     &c.RejectedFull,
		outRejectedDraining: &c.RejectedDraining,
		outRejectedInvalid:  &c.RejectedInvalid,
		outRejectedShed:     &c.RejectedShed,
		outTimedOut:         &c.TimedOut,
		outCanceled:         &c.Canceled,
		outDepCanceled:      &c.DepCanceled,
		outRejectedDepFull:  &c.RejectedDepFull,
	}[o]
}

// field returns the Session field family o is tallied in.
func (sess *Session) field(o outcome) *int64 {
	return [numOutcomes]*int64{
		outEnqueued:         &sess.Launches,
		outCompleted:        &sess.Completed,
		outSubmitError:      &sess.SubmitErrors,
		outRejectedFull:     &sess.RejectedFull,
		outRejectedDraining: &sess.RejectedDraining,
		outRejectedInvalid:  &sess.RejectedInvalid,
		outRejectedShed:     &sess.RejectedShed,
		outTimedOut:         &sess.TimedOut,
		outCanceled:         &sess.Canceled,
		outDepCanceled:      &sess.DepCanceled,
		outRejectedDepFull:  &sess.RejectedDepFull,
	}[o]
}

// account records one launch outcome: the flep_server_launches_total
// series, the daemon counters and the client's session, under one s.mu
// acquisition, so /metrics, /v1/status and /v1/sessions reconcile
// exactly at rest. Accepted work materializes the session; a reject
// lands only on a session that already exists — rejected requests carry
// attacker-controlled client names, and creating state per garbage name
// would be an unbounded-memory vector.
func (s *Server) account(client string, o outcome) {
	//flepvet:allow sharedlock -- bounded counter bump; handlers only copy under s.mu, never block
	s.mu.Lock()
	s.met.Launches[o].Inc()
	*s.c.field(o)++
	sess := s.sessions[client]
	if sess == nil && outcomes[o].accepted {
		sess = s.session(client)
	}
	if sess != nil {
		*sess.field(o)++
	}
	s.mu.Unlock()
}
