package experiments

import (
	"context"
	"errors"
	"testing"
)

// TestPreCanceledContext verifies every generator path returns
// ctx.Err() without doing work when handed a dead context.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Config{}
	checks := []struct {
		name string
		run  func() error
	}{
		{"Table1", func() error { _, err := c.Table1(ctx); return err }},
		{"Table6", func() error { _, err := c.Table6(ctx); return err }},
		{"Figure2", func() error { _, err := c.Figure2(ctx); return err }},
		{"Figure3", func() error { _, err := c.Figure3(ctx); return err }},
		{"Figure5", func() error { _, err := c.Figure5(ctx); return err }},
	}
	for _, ck := range checks {
		if err := ck.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", ck.name, err)
		}
	}
}

// TestMidRunCancelTableDriver cancels Table7 from its own progress
// callback after the first completed row; the pool must stop handing
// out units and surface ctx.Err().
func TestMidRunCancelTableDriver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		c := Config{Workers: workers, Progress: func(_ string, done, total int) {
			ran = done
			cancel()
		}}
		_, err := c.Table7(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// JUQUEEN has 19 feasible sizes; canceling after the first
		// completions must leave most unvisited (in-flight units finish,
		// new ones are not handed out).
		if ran >= 19 {
			t.Errorf("Workers=%d: all %d units ran despite cancellation", workers, ran)
		}
		cancel()
	}
}

// TestMidRunCancelPairingFigure cancels Figure4 from its progress
// callback after the first completed pairing point.
func TestMidRunCancelPairingFigure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := Config{Workers: 1, Progress: func(_ string, done, total int) { cancel() }}
	_, err := c.Figure4(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestCancelAfterAllUnitsComplete pins the pooled/sequential
// agreement on late cancellation: a cancel that lands only after
// every unit finished is not an error — the complete result is
// returned on both paths.
func TestCancelAfterAllUnitsComplete(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		c := Config{Workers: workers, Progress: func(_ string, done, total int) {
			if done == total {
				cancel()
			}
		}}
		if err := c.forEachProgress(ctx, 8, func(i int) error { return nil }); err != nil {
			t.Errorf("Workers=%d: err = %v, want nil (cancel landed after completion)", workers, err)
		}
		cancel()
	}
}
