package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"netpart/internal/scenario"
)

// ErrClosed reports an operation on a closed session.
var ErrClosed = errors.New("cluster: session is closed")

// clockTick is the wall interval at which a real-time session's
// background clock syncs the engine, so events stream out without
// API traffic driving them.
const clockTick = 100 * time.Millisecond

// SubmitJob is one wire-level job submission: a Job plus the
// client-supplied identifier that makes resubmission idempotent.
type SubmitJob struct {
	// ID identifies the job across retries: a job whose ID the session
	// has already accepted is counted as a duplicate and not submitted
	// again. Required.
	ID string `json:"id"`
	// Midplanes and RuntimeSec are the job request (tracesim JobSpec
	// semantics).
	Midplanes  int     `json:"midplanes"`
	RuntimeSec float64 `json:"runtime_sec"`
	// ArrivalSec is the requested virtual arrival. Arrivals in the
	// session's past (including the default 0) are clamped to the
	// current virtual time — a job cannot be submitted into history.
	ArrivalSec float64 `json:"arrival_sec,omitempty"`
	// Pattern and ContentionBound declare the job's contention model.
	Pattern         string `json:"pattern,omitempty"`
	ContentionBound bool   `json:"contention_bound,omitempty"`
}

// Receipt summarizes one Submit call.
type Receipt struct {
	// Accepted is the number of newly enqueued jobs; Duplicates the
	// number skipped because their ID was already accepted.
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	// Submitted is the session's lifetime accepted-job count.
	Submitted int `json:"submitted"`
	// TimeSec is the virtual clock after the submission was processed.
	TimeSec float64 `json:"time_sec"`
}

// SessionOptions tunes one session.
type SessionOptions struct {
	// OnEvent, when non-nil, receives every engine event (annotated
	// with the client job ID). Callbacks run under the session lock on
	// the goroutine that triggered the work — the submitting caller,
	// or the background clock of a real-time session — so they must
	// not call back into the session and should not block.
	OnEvent func(Event)
}

// Session is a live simulated cluster: an Engine behind a mutex, a
// virtual clock, and idempotent client job IDs. Concurrent Submit /
// Snapshot / Close calls from many goroutines are safe; the engine's
// event loop stays sequential under the lock.
//
// The virtual clock has two modes. Free-running (TimeScale 0): the
// clock advances to the latest submitted arrival on every submission
// and to completion on Close — so a complete trace replayed through a
// session (in one batch, or chunks with non-decreasing arrivals)
// yields metrics byte-identical to tracesim.Run. Real-time-scaled
// (TimeScale > 0): TimeScale virtual seconds elapse per wall second,
// a background ticker advances the engine between calls, and arrivals
// default to "now" — the live-dashboard mode.
type Session struct {
	mu   sync.Mutex
	spec Spec
	eng  *Engine

	byID    map[string]int // client job ID → engine ID
	ids     []string       // engine ID → client job ID
	horizon float64        // latest submitted arrival (free-running advance target)

	scale float64
	epoch time.Time
	stop  chan struct{}

	closed  bool
	onEvent func(Event)
}

// Open normalizes the spec, resolves its machine and starts a session
// at virtual time zero.
func Open(spec Spec, opts SessionOptions) (*Session, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	m, err := scenario.ResolveMachine(norm.Machine)
	if err != nil {
		return nil, err
	}
	s := &Session{
		spec:    norm,
		byID:    map[string]int{},
		scale:   norm.TimeScale,
		epoch:   time.Now(),
		onEvent: opts.OnEvent,
	}
	s.eng, err = NewEngine(Config{
		Machine:  m,
		Policy:   norm.Policy,
		Backfill: norm.Backfill,
		Failures: norm.Failures,
		OnEvent: func(ev Event) {
			if ev.Job >= 0 && ev.Job < len(s.ids) {
				ev.JobID = s.ids[ev.Job]
			}
			if s.onEvent != nil {
				s.onEvent(ev)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if s.scale > 0 {
		s.stop = make(chan struct{})
		go s.runClock()
	}
	return s, nil
}

// Spec returns the normalized session spec.
func (s *Session) Spec() Spec { return s.spec }

// runClock drives a real-time session's engine between API calls.
func (s *Session) runClock() {
	t := time.NewTicker(clockTick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				// Bounded work: every due event fires, then the clock
				// parks at the wall-derived virtual time.
				_ = s.eng.Advance(context.Background(), s.virtualNow())
			}
			s.mu.Unlock()
		}
	}
}

// virtualNow returns the wall-derived virtual time of a real-time
// session (callers hold the lock; free-running sessions never call
// it).
func (s *Session) virtualNow() float64 {
	return s.scale * time.Since(s.epoch).Seconds()
}

// Submit validates and enqueues a batch of jobs, skipping IDs the
// session has already accepted (idempotent resubmission), then
// advances the virtual clock: free-running sessions to the latest
// submitted arrival, real-time sessions to wall-derived virtual now.
// The whole batch is rejected — nothing enqueued — when any
// non-duplicate job is invalid.
func (s *Session) Submit(ctx context.Context, jobs []SubmitJob) (Receipt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Receipt{}, ErrClosed
	}
	if s.scale > 0 {
		if err := s.eng.Advance(ctx, s.virtualNow()); err != nil {
			return Receipt{}, err
		}
	}
	now := s.eng.Now()

	var rec Receipt
	batch := make([]Job, 0, len(jobs))
	batchIDs := make([]string, 0, len(jobs))
	inBatch := map[string]bool{}
	for _, sj := range jobs {
		id := strings.TrimSpace(sj.ID)
		if id == "" {
			return Receipt{}, fmt.Errorf("cluster: every job needs a client-supplied id")
		}
		if _, dup := s.byID[id]; dup || inBatch[id] {
			rec.Duplicates++
			continue
		}
		if len(s.ids)+len(batch) >= MaxSessionJobs {
			return Receipt{}, fmt.Errorf("cluster: session job bound %d reached", MaxSessionJobs)
		}
		arrival := sj.ArrivalSec
		if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
			return Receipt{}, fmt.Errorf("cluster: job %q arrival %v is not finite", id, sj.ArrivalSec)
		}
		if arrival < now {
			arrival = now
		}
		inBatch[id] = true
		batchIDs = append(batchIDs, id)
		batch = append(batch, Job{
			Midplanes:       sj.Midplanes,
			ArrivalSec:      arrival,
			RuntimeSec:      sj.RuntimeSec,
			Pattern:         sj.Pattern,
			ContentionBound: sj.ContentionBound,
		})
	}
	if len(batch) > 0 {
		// The engine emits submit events during Submit and annotates
		// them with client IDs from s.ids, so the IDs go in first; they
		// come back out if the batch is rejected.
		s.ids = append(s.ids, batchIDs...)
		base, err := s.eng.Submit(batch)
		if err != nil {
			s.ids = s.ids[:len(s.ids)-len(batchIDs)]
			return Receipt{}, err
		}
		for i, id := range batchIDs {
			s.byID[id] = base + i
		}
		for _, j := range batch {
			if j.ArrivalSec > s.horizon {
				s.horizon = j.ArrivalSec
			}
		}
		rec.Accepted = len(batch)
	}
	to := s.horizon
	if s.scale > 0 {
		to = s.virtualNow()
	}
	if err := s.eng.Advance(ctx, to); err != nil {
		return Receipt{}, err
	}
	rec.Submitted = len(s.ids)
	rec.TimeSec = s.eng.Now()
	return rec, nil
}

// Snapshot summarizes the session at its current virtual time
// (advancing a real-time session's clock to wall-derived now first).
func (s *Session) Snapshot(ctx context.Context) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, ErrClosed
	}
	if s.scale > 0 {
		if err := s.eng.Advance(ctx, s.virtualNow()); err != nil {
			return Snapshot{}, err
		}
	}
	return s.eng.Snapshot(), nil
}

// Close drains every submitted job to completion and returns the
// final tracesim-shaped metrics (including the healthy-baseline
// deltas when the session has a failure model). The session accepts
// no further calls. A wedged schedule (permanent outage starving the
// queue head) or an expired context surfaces as an error; the session
// still closes.
func (s *Session) Close(ctx context.Context) (Metrics, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Metrics{}, ErrClosed
	}
	s.closed = true
	if s.stop != nil {
		close(s.stop)
	}
	if err := s.eng.Drain(ctx); err != nil {
		return Metrics{}, err
	}
	met := s.eng.Metrics()
	if s.spec.Failures != nil {
		hm, err := s.eng.HealthyMetrics(ctx)
		if err != nil {
			return Metrics{}, fmt.Errorf("cluster: healthy baseline: %w", err)
		}
		ApplyHealthyDeltas(&met, hm)
	}
	return met, nil
}

// Abort closes the session without draining — the idle-reap and
// hard-shutdown path. Safe to call on an already closed session.
func (s *Session) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.stop != nil {
		close(s.stop)
	}
}
