package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestMain lets the traced run re-execute the test binary for its
// child-process passes, as the command re-executes itself.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-pass" {
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range bench.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bench.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(ms map[string]metric) []string {
	out := make([]string, 0, len(ms))
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %v, BENCHMARK.json declares %v", what, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: emitted %v, BENCHMARK.json declares %v", what, got, want)
			return
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload for one round,
// traced, and checks that the emitted metric names match BENCHMARK.json
// in both directions and that the spans cover every traced layer.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, name := range workloadNames {
		doc, err := run(context.Background(), name, config{seed: 1, rounds: 1, trace: true, spans: spanFile})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !doc.Correct {
			t.Errorf("%s: incorrect output: %v", name, doc.Failures)
		}
		sameNames(t, name+" end-to-end", names(doc.e2e), endToEnd)
		sameNames(t, name+" per-layer", names(doc.Metrics), perLayer)
		if doc.Metrics["peers.fallbacks"].Value != 0 {
			t.Errorf("%s: %v peer fallbacks", name, doc.Metrics["peers.fallbacks"].Value)
		}
	}

	f, err := os.Open(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{
		"client.op", "client.req", // the load generator
		"serve.handler", "serve.sse", "serve.peer", // internal/serve, its peers
		"lib.scenario.Run", "lib.sweep.RunPoints", "lib.sweep.point", "lib.tracesim.Run",
		"lib.cluster.Open", "lib.cluster.Submit", "lib.cluster.Snapshot", "lib.cluster.Close",
	} {
		if !seen[want] {
			t.Errorf("no %s span recorded", want)
		}
	}
}

// TestMeasuredRun checks the untraced run: the metrics it emits are
// exactly the end-to-end ones, with the set-up sampled in child
// processes and the timings scaled by the reference child's samples.
func TestMeasuredRun(t *testing.T) {
	endToEnd, _ := benchmarkNames(t)
	doc, err := run(context.Background(), "fleet-sweep", config{seed: 1, rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Correct || doc.Attempted != fleetRoundOps {
		t.Errorf("correct %v, attempted %d: %v", doc.Correct, doc.Attempted, doc.Failures)
	}
	if h := doc.Header; h.ReferenceWallMS <= 0 || h.ReferenceCPUMS <= 0 {
		t.Errorf("reference medians wall %v ms, cpu %v ms; want both > 0", h.ReferenceWallMS, h.ReferenceCPUMS)
	}
	sameNames(t, "end-to-end", names(doc.Metrics), endToEnd)
	for k, m := range doc.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, m.Value)
		}
	}
}
