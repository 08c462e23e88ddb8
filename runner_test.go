package netpart

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestRegistryStable pins the public contract of the registry: exactly
// the 14 paper artifacts, stable IDs, unique, in presentation order,
// with the kinds the IDs promise.
func TestRegistryStable(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"figure1", "figure2", "figure3", "figure4", "figure5", "figure6", "figure7",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	seen := map[string]bool{}
	for i, exp := range reg {
		if exp.ID != want[i] {
			t.Errorf("registry[%d].ID = %q, want %q", i, exp.ID, want[i])
		}
		if seen[exp.ID] {
			t.Errorf("duplicate ID %q", exp.ID)
		}
		seen[exp.ID] = true
		wantKind := KindTable
		if strings.HasPrefix(exp.ID, "figure") {
			wantKind = KindFigure
		}
		if exp.Kind != wantKind {
			t.Errorf("%s: kind = %q, want %q", exp.ID, exp.Kind, wantKind)
		}
		if exp.Title == "" || exp.Cost == "" {
			t.Errorf("%s: incomplete descriptor %+v", exp.ID, exp)
		}
		if got, ok := Lookup(exp.ID); !ok || got.Title != exp.Title {
			t.Errorf("Lookup(%q) = %+v, %v", exp.ID, got, ok)
		}
	}
	if _, ok := Lookup("table99"); ok {
		t.Error("Lookup should reject unknown IDs")
	}
}

// TestEveryRegisteredIDRuns executes all 14 artifacts through one
// Runner and checks the uniform Result shape: a non-empty table
// always, a chart and typed data exactly for figures.
func TestEveryRegisteredIDRuns(t *testing.T) {
	runner := NewRunner()
	ctx := context.Background()
	results, err := runner.RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Registry()) {
		t.Fatalf("RunAll returned %d results", len(results))
	}
	for _, res := range results {
		id := res.Experiment.ID
		if len(res.Table.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if res.Experiment.Kind == KindFigure {
			if res.Chart == nil {
				t.Errorf("%s: figure without chart", id)
			}
			if res.Data == nil {
				t.Errorf("%s: figure without typed data", id)
			}
		} else if res.Chart != nil {
			t.Errorf("%s: table with chart", id)
		}
		if res.Meta.Workers < 1 {
			t.Errorf("%s: meta workers = %d", id, res.Meta.Workers)
		}
		js, err := res.JSON()
		if err != nil {
			t.Errorf("%s: JSON: %v", id, err)
		}
		if !bytes.Contains(js, []byte(fmt.Sprintf("%q", id))) {
			t.Errorf("%s: JSON missing its own ID", id)
		}
		if _, err := res.CSV(); err != nil {
			t.Errorf("%s: CSV: %v", id, err)
		}
	}
	if _, err := runner.Run(ctx, "figure99"); err == nil {
		t.Error("Run should reject unknown IDs")
	}
}

// TestRunnerOptions checks the per-call options: workers are per-run
// state with byte-identical output, and progress callbacks report the
// experiment ID with monotone counts.
func TestRunnerOptions(t *testing.T) {
	ctx := context.Background()
	seqRes, err := NewRunner(WithWorkers(1)).Run(ctx, "table6")
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := NewRunner(WithWorkers(8)).Run(ctx, "table6")
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Table.Render() != parRes.Table.Render() {
		t.Error("worker count changed output")
	}
	if seqRes.Meta.Workers != 1 || parRes.Meta.Workers != 8 {
		t.Errorf("meta workers = %d, %d", seqRes.Meta.Workers, parRes.Meta.Workers)
	}

	var last Progress
	calls := 0
	runner := NewRunner(WithWorkers(2), WithProgress(func(p Progress) {
		calls++
		if p.Experiment != "figure2" {
			t.Errorf("progress for %q", p.Experiment)
		}
		last = p
	}))
	if _, err := runner.Run(ctx, "figure2"); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || last.Done != last.Total || last.Total == 0 {
		t.Errorf("progress ended at %+v after %d calls", last, calls)
	}
}

// TestRunTokensDistinguishConcurrentRuns: two concurrent runs of the
// same experiment ID report distinct per-run tokens, each token is
// stable across its run's reports, and RunMeta echoes it — the
// contract a multiplexed progress consumer (SSE fan-out) relies on.
func TestRunTokensDistinguishConcurrentRuns(t *testing.T) {
	ctx := context.Background()
	run := func() (string, map[string]bool) {
		tokens := map[string]bool{}
		var mu sync.Mutex
		runner := NewRunner(WithWorkers(2), WithProgress(func(p Progress) {
			if p.Experiment != "figure1" {
				t.Errorf("progress for %q", p.Experiment)
			}
			if p.Run == "" {
				t.Error("empty run token")
			}
			mu.Lock()
			tokens[p.Run] = true
			mu.Unlock()
		}))
		res, err := runner.Run(ctx, "figure1")
		if err != nil {
			t.Error(err)
			return "", nil
		}
		return res.Meta.Run, tokens
	}
	type out struct {
		meta   string
		tokens map[string]bool
	}
	results := make(chan out, 2)
	for range 2 {
		go func() {
			meta, tokens := run()
			results <- out{meta, tokens}
		}()
	}
	a, b := <-results, <-results
	for _, o := range []out{a, b} {
		if len(o.tokens) != 1 || !o.tokens[o.meta] {
			t.Errorf("run reported tokens %v but meta token %q", o.tokens, o.meta)
		}
	}
	if a.meta == b.meta {
		t.Errorf("concurrent runs share token %q", a.meta)
	}
}

// TestResultMarkdown: the Markdown encoding is deterministic and
// carries the table grid.
func TestResultMarkdown(t *testing.T) {
	runner := NewRunner()
	res, err := runner.Run(context.Background(), "table4")
	if err != nil {
		t.Fatal(err)
	}
	md := res.Markdown()
	if !bytes.Contains(md, []byte("| --- |")) || !bytes.Contains(md, []byte(res.Table.Headers[0])) {
		t.Errorf("markdown missing table structure:\n%s", md)
	}
	res2, err := runner.Run(context.Background(), "table4")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(md, res2.Markdown()) {
		t.Error("Markdown encoding not deterministic across runs")
	}
}

// TestRunPreCanceled: a dead context returns ctx.Err() from both a
// table experiment and a pairing figure without work.
func TestRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runner := NewRunner()
	for _, id := range []string{"table6", "figure3"} {
		if _, err := runner.Run(ctx, id); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", id, err)
		}
	}
}

// TestRunMidRunCanceled cancels from the progress callback: the
// table's row pool and the pairing figure's point pool must stop
// handing out units and surface ctx.Err().
func TestRunMidRunCanceled(t *testing.T) {
	for _, id := range []string{"table7", "figure4"} {
		ctx, cancel := context.WithCancel(context.Background())
		runner := NewRunner(WithWorkers(1), WithProgress(func(p Progress) { cancel() }))
		if _, err := runner.Run(ctx, id); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", id, err)
		}
		cancel()
	}
}

// TestResultGolden locks the byte-deterministic encodings: one table
// and three figure Results (figure6 and the two pairing figures, whose
// full-precision times nothing else pins), JSON and CSV, against
// checked-in golden files. Regenerate with UPDATE_GOLDEN=1 go test -run TestResultGolden.
func TestResultGolden(t *testing.T) {
	runner := NewRunner()
	ctx := context.Background()
	for _, tc := range []struct {
		id   string
		enc  string
		get  func(*Result) ([]byte, error)
		file string
	}{
		{"table4", "json", (*Result).JSON, "table4.json"},
		{"table4", "csv", (*Result).CSV, "table4.csv"},
		{"figure6", "json", (*Result).JSON, "figure6.json"},
		{"figure6", "csv", (*Result).CSV, "figure6.csv"},
		{"figure3", "json", (*Result).JSON, "figure3.json"},
		{"figure3", "csv", (*Result).CSV, "figure3.csv"},
		{"figure4", "json", (*Result).JSON, "figure4.json"},
		{"figure4", "csv", (*Result).CSV, "figure4.csv"},
	} {
		t.Run(tc.id+"/"+tc.enc, func(t *testing.T) {
			res, err := runner.Run(ctx, tc.id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.get(res)
			if err != nil {
				t.Fatal(err)
			}
			// Encoding twice yields identical bytes.
			again, err := tc.get(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, again) {
				t.Fatal("encoding not deterministic within one result")
			}
			// And a fresh run of the same experiment encodes identically.
			res2, err := runner.Run(ctx, tc.id)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := tc.get(res2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fresh) {
				t.Fatal("encoding not deterministic across runs")
			}
			path := filepath.Join("testdata", tc.file)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
