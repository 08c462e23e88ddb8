package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSessionConcurrentSubmitters hammers one session from many
// goroutines (run under -race in CI): unique jobs from each submitter
// interleaved with a shared batch every submitter retries, plus
// concurrent snapshot readers. Idempotency must hold exactly — the
// shared batch lands once — and the drained metrics must cover every
// unique job.
func TestSessionConcurrentSubmitters(t *testing.T) {
	sess, err := Open(Spec{Machine: "4x4x2x1", Policy: PolicyContentionAware, Backfill: true}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		submitters = 16
		perG       = 20
		shared     = 8
	)
	ctx := context.Background()
	sharedBatch := make([]SubmitJob, shared)
	for i := range sharedBatch {
		sharedBatch[i] = SubmitJob{
			ID: fmt.Sprintf("shared-%03d", i), Midplanes: 1 + i%4,
			RuntimeSec: 30 + float64(i), Pattern: PatternPairing,
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, errs := 0, 0
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Sizes that place on the 4x4x2x1 grid.
				sizes := []int{1, 2, 3, 4, 6, 8, 12, 16}
				jobs := []SubmitJob{{
					ID: fmt.Sprintf("g%02d-j%03d", g, i), Midplanes: sizes[(g+i)%len(sizes)],
					RuntimeSec: 10 + float64(i), ArrivalSec: float64(i),
					ContentionBound: g%2 == 0,
				}}
				if i%5 == 0 {
					jobs = append(jobs, sharedBatch...)
				}
				rec, err := sess.Submit(ctx, jobs)
				mu.Lock()
				if err != nil {
					errs++
				} else {
					accepted += rec.Accepted
				}
				mu.Unlock()
				if i%7 == 0 {
					if _, err := sess.Snapshot(ctx); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()

	unique := submitters*perG + shared
	if errs != 0 || accepted != unique {
		t.Fatalf("accepted %d jobs with %d errors, want %d/0", accepted, errs, unique)
	}
	snap, err := sess.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Submitted != unique {
		t.Fatalf("snapshot submitted %d, want %d", snap.Submitted, unique)
	}
	met, err := sess.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if met.Jobs != unique {
		t.Fatalf("final metrics cover %d jobs, want %d", met.Jobs, unique)
	}
	if _, err := sess.Submit(ctx, sharedBatch); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if _, err := sess.Close(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v, want ErrClosed", err)
	}
}

// TestSessionRealTimeClock: a real-time-scaled session advances its
// virtual clock from wall time — submitted jobs finish without any
// further API traffic driving the engine.
func TestSessionRealTimeClock(t *testing.T) {
	var mu sync.Mutex
	var kinds []string
	sess, err := Open(Spec{Machine: "2x2x2x1", TimeScale: 1e5}, SessionOptions{
		OnEvent: func(ev Event) {
			mu.Lock()
			kinds = append(kinds, ev.Kind)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Abort()
	ctx := context.Background()
	rec, err := sess.Submit(ctx, []SubmitJob{
		{ID: "rt-a", Midplanes: 4, RuntimeSec: 100},
		{ID: "rt-b", Midplanes: 8, RuntimeSec: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Accepted != 2 {
		t.Fatalf("accepted %d, want 2", rec.Accepted)
	}
	// 300 virtual seconds at 1e5×: done in ~3ms of wall time; the
	// background ticker (100ms) finishes them with no Submit/Snapshot
	// call needed. Poll the event tap, not the session, to prove it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		finished := 0
		for _, k := range kinds {
			if k == "finish" {
				finished++
			}
		}
		mu.Unlock()
		if finished == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never finished; events %v", kinds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap, err := sess.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Finished != 2 || snap.TimeSec < 300 {
		t.Fatalf("snapshot %+v, want 2 finished at/after t=300", snap)
	}
	met, err := sess.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if met.Jobs != 2 {
		t.Fatalf("metrics cover %d jobs, want 2", met.Jobs)
	}
}

// TestSessionArrivalClamp: a free-running session's clock never runs
// backwards — a job submitted with an arrival in the session's past is
// clamped to virtual now.
func TestSessionArrivalClamp(t *testing.T) {
	sess, err := Open(Spec{Machine: "2x2x2x1"}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Submit(ctx, []SubmitJob{{ID: "late", Midplanes: 1, RuntimeSec: 50, ArrivalSec: 1000}}); err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Submit(ctx, []SubmitJob{{ID: "stale", Midplanes: 1, RuntimeSec: 50, ArrivalSec: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TimeSec < 1000 {
		t.Fatalf("clock %v ran backwards past horizon 1000", rec.TimeSec)
	}
	met, err := sess.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if met.MakespanSec < 1050 {
		t.Fatalf("makespan %v, want >= 1050 (stale arrival clamped to now)", met.MakespanSec)
	}
}

// TestSessionSubmitValidation: a batch with any invalid job is
// rejected whole, and valid jobs from it can be resubmitted cleanly.
func TestSessionSubmitValidation(t *testing.T) {
	sess, err := Open(Spec{Machine: "2x2x2x1"}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := []SubmitJob{
		{ID: "ok", Midplanes: 2, RuntimeSec: 60},
		{ID: "too-big", Midplanes: 1 << 20, RuntimeSec: 60},
	}
	if _, err := sess.Submit(ctx, bad); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, err := sess.Submit(ctx, []SubmitJob{{Midplanes: 1, RuntimeSec: 60}}); err == nil {
		t.Fatal("job without an id accepted")
	}
	rec, err := sess.Submit(ctx, bad[:1])
	if err != nil {
		t.Fatal(err)
	}
	if rec.Accepted != 1 || rec.Duplicates != 0 {
		t.Fatalf("receipt %+v after rejected batch, want the ok job accepted fresh", rec)
	}
	if met, err := sess.Close(ctx); err != nil || met.Jobs != 1 {
		t.Fatalf("metrics %+v err %v, want exactly the one accepted job", met, err)
	}
}

// TestSessionJobBound: a batch that would take the session past
// MaxSessionJobs is rejected whole, so nothing of it is enqueued.
func TestSessionJobBound(t *testing.T) {
	sess, err := Open(Spec{Machine: "2x2x2x1"}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batch := make([]SubmitJob, MaxSessionJobs+1)
	for i := range batch {
		batch[i] = SubmitJob{ID: fmt.Sprintf("j%d", i), Midplanes: 1, RuntimeSec: 60}
	}
	want := fmt.Sprintf("session job bound %d reached", MaxSessionJobs)
	if _, err := sess.Submit(ctx, batch); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	snap, err := sess.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Submitted != 0 {
		t.Fatalf("snapshot submitted %d after the rejected batch, want 0", snap.Submitted)
	}
}
