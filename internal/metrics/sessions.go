// Session-level accounting for multi-turn conversation traffic: turns
// carry Session/Turn/SessionTurns identity, and the accumulator splits
// first-turn from later-turn TTFT (later turns ride the conversation's
// cached prefix, so the split is the direct measurement of what prefix
// caching buys sessions) and scores session-level goodput — output
// tokens of sessions whose every turn completed within SLO. The state
// lives inside RequestAccumulator, so every cluster run aggregates
// sessions exactly like classes: integer counters and sketch buckets.

package metrics

import "repro/internal/simtime"

// sessionState tracks one live session until all its turns reach a
// terminal event; the entry is dropped at close, so memory is bounded
// by concurrently open sessions, not total sessions.
type sessionState struct {
	seen, turns  int
	rejected     bool // some turn was refused
	violated     bool // some served turn missed its class SLO
	outputTokens int64
}

// sessionAccum is the streaming session aggregate.
type sessionAccum struct {
	live map[int]*sessionState

	closed   int // sessions with every turn observed
	served   int // closed sessions with no rejected turn
	attained int // served sessions with every turn within SLO

	turns         int // session-tagged terminal records observed
	turnsRejected int

	firstTTFT Sketch // TTFT of completed first turns
	laterTTFT Sketch // TTFT of completed turns >= 2

	outputTokens   int64 // generated by completed session turns
	attainedTokens int64 // generated by fully SLO-attained sessions
}

func (s *sessionAccum) state(id, turns int) *sessionState {
	if s.live == nil {
		s.live = map[int]*sessionState{}
	}
	if st, ok := s.live[id]; ok {
		return st
	}
	st := &sessionState{turns: turns}
	s.live[id] = st
	return st
}

// closeIfDone retires a session whose every turn has been observed.
func (s *sessionAccum) closeIfDone(id int, st *sessionState) {
	if st.seen < st.turns {
		return
	}
	s.closed++
	if !st.rejected {
		s.served++
		if !st.violated {
			s.attained++
			s.attainedTokens += st.outputTokens
		}
	}
	delete(s.live, id)
}

// observeSession folds one session-tagged terminal record.
func (a *RequestAccumulator) observeSession(r *RequestRecord) {
	if r.Session == 0 {
		return
	}
	s := &a.sessions
	st := s.state(r.Session, r.SessionTurns)
	st.seen++
	s.turns++
	if r.Rejected {
		st.rejected = true
		s.turnsRejected++
	} else {
		st.outputTokens += int64(r.OutputLen)
		s.outputTokens += int64(r.OutputLen)
		if r.Turn == 1 {
			s.firstTTFT.Add(r.TTFT())
		} else {
			s.laterTTFT.Add(r.TTFT())
		}
		if !r.MeetsSLO(a.slos[r.Class]) {
			st.violated = true
		}
	}
	s.closeIfDone(r.Session, st)
}

// SessionSummary aggregates multi-turn session traffic: how many
// conversations ran, how first-turn latency compares with later turns
// (which ride the session's cached prefix), and session-level goodput.
type SessionSummary struct {
	Sessions  int // distinct sessions observed
	Completed int // sessions whose every turn was served
	Attained  int // completed sessions with every turn within SLO

	Turns         int // session turns observed (admitted + rejected)
	TurnsRejected int

	FirstTurnTTFT Dist // over completed first turns
	LaterTurnTTFT Dist // over completed turns >= 2

	OutputTokens int64 // generated by completed session turns
	// GoodputTPS is the session-level goodput: output tokens of
	// fully-SLO-attained sessions per second of simulated time.
	GoodputTPS float64
}

// Sessions rolls the session aggregate up, or nil when the run carried
// no session-tagged traffic. Sessions still open at the end of the run
// (turns truncated by the request cap) count as observed but never as
// completed or attained.
func (a *RequestAccumulator) Sessions(end simtime.Time) *SessionSummary {
	s := &a.sessions
	if s.turns == 0 {
		return nil
	}
	out := &SessionSummary{
		Sessions:      s.closed + len(s.live),
		Completed:     s.served,
		Attained:      s.attained,
		Turns:         s.turns,
		TurnsRejected: s.turnsRejected,
		FirstTurnTTFT: s.firstTTFT.Dist(),
		LaterTurnTTFT: s.laterTTFT.Dist(),
		OutputTokens:  s.outputTokens,
	}
	if endSec := end.Seconds(); endSec > 0 {
		out.GoodputTPS = float64(s.attainedTokens) / endSec
	}
	return out
}
