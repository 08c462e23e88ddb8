package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// perOpLib names the library spans that are one operation's work;
// session open and close and per-point spans are not.
var perOpLib = []string{"lib.scenario.Run", "lib.tracesim.Run", "lib.cluster.Submit", "lib.cluster.Snapshot", "lib.sweep.RunPoints"}

// runTraced is the traced run. An untraced phase a third of the run
// long fixes the operation count and the untraced throughput; a
// traced HTTP pass and a library pass then replay the same operations,
// each in a fresh process from the same warm-up. End-to-end metrics
// always come from untraced runs; this run reports per-layer ones.
func runTraced(ctx context.Context, name string, cfg config) (*resultDoc, error) {
	w := workloads[name](cfg.seed)
	t0 := time.Now()
	e, err := setup(ctx, w, nil)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(t0).Seconds()
	ph := runPhase(ctx, w, e, cfg.seconds/3, cfg.rounds, nil)
	if err := e.close(); err != nil {
		return nil, err
	}
	h, err := runPass(ctx, "http", name, cfg.seed, len(ph.rounds))
	if err != nil {
		return nil, err
	}
	l, err := runPass(ctx, "lib", name, cfg.seed, len(ph.rounds))
	if err != nil {
		return nil, err
	}
	doc := newDoc(name, cfg, w, t0, ph)
	for _, f := range append(h.Failures, l.Failures...) {
		doc.Failures = append(doc.Failures, "traced pass: "+f)
	}
	doc.Correct = doc.Correct && len(h.Failures) == 0 && len(l.Failures) == 0
	doc.e2e = endToEnd(ph, setupS, unscaled)
	doc.Metrics = perLayer(doc.e2e["throughput_ops_s"].Value, h, l)
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, name, h.Spans, l.Spans); err != nil {
			return nil, err
		}
	}
	doc.summary = append(summaryHead(doc, ph), formatMetrics(doc.Metrics)...)
	doc.summary = append(doc.summary, spanTable(h, l)...)
	return doc, nil
}

// perLayer computes the per-layer metrics from the two traced passes.
// untraced is the untraced phase's throughput, against which the
// traced HTTP pass gives the tracing overhead.
func perLayer(untraced float64, h, l *passReport) map[string]metric {
	ops := float64(h.Ops)
	c, p := h.Counters, h.PeerCounters

	isOp := map[string]bool{}
	for _, s := range h.Spans {
		if s.Name == "client.op" {
			isOp[s.Op] = true
		}
	}
	req := sumByOp(h.Spans, "client.req")
	handler := sumByOp(h.Spans, "serve.handler", "serve.sse")
	lib := sumByOp(l.Spans, perOpLib...)
	var self, transport, libMS []float64
	for op, d := range lib {
		libMS = append(libMS, ms(d))
		if hd, ok := handler[op]; ok {
			self = append(self, ms(hd-d))
		}
	}
	for op, d := range req {
		if isOp[op] {
			transport = append(transport, ms(d-handler[op]))
		}
	}

	// The cache that answers the workload's results: the worker's in
	// fleet mode, where the coordinator only caches whole sweeps.
	cache := c
	if p["netpart_cache_misses_total"] > 0 {
		cache = p
	}
	served := cache["netpart_cache_hits_total"] + cache["netpart_cache_store_hits_total"] + cache["netpart_cache_coalesced_total"]
	admSum := c["netpart_admission_wait_seconds_sum"] + p["netpart_admission_wait_seconds_sum"]
	admCount := c["netpart_admission_wait_seconds_count"] + p["netpart_admission_wait_seconds_count"]
	dropped := c["netpart_sse_dropped_frames_total"]
	memoHits, memoMisses := c["netpart_sim_contention_memo_hits_total"], c["netpart_sim_contention_memo_misses_total"]
	fsHits, fsMisses := c["netpart_sim_flowset_cache_hits_total"], c["netpart_sim_flowset_cache_misses_total"]
	planHits, planMisses := c["netpart_sched_plan_cache_hits_total"], c["netpart_sched_plan_cache_misses_total"]

	return map[string]metric{
		"serve.handler_self_ms_p50":    {median(self), "ms"},
		"serve.transport_ms_p50":       {median(transport), "ms"},
		"serve.admission_wait_ms_mean": {1000 * ratio(admSum, admCount), "ms"},
		"serve.cache_hit_ratio":        {ratio(served, served+cache["netpart_cache_misses_total"]), "ratio"},
		"serve.sse_frames_per_op":      {float64(h.Frames) / ops, "count"},
		"serve.sse_dropped_ratio":      {ratio(dropped, dropped+float64(h.Frames)), "ratio"},
		"serve.alloc_mb_per_op":        {(float64(h.AllocBytes)/ops - float64(l.AllocBytes)/float64(max(l.Ops, 1))) / 1e6, "MB"},
		"store.restores_per_op":        {c["netpart_cache_store_hits_total"] / ops, "count"},
		"store.persists_per_op":        {c["netpart_store_persists_total"] / ops, "count"},
		"peers.dispatches_per_op":      {c["netpart_peer_dispatched_total"] / ops, "count"},
		"peers.fallbacks":              {c["netpart_peer_failed_total"], "count"},
		"lib.run_ms_p50":               {median(libMS), "ms"},
		"lib.run_ms_p95":               {percentile(libMS, 95), "ms"},
		"cluster.memo_hit_ratio":       {ratio(memoHits, memoHits+memoMisses), "ratio"},
		"cluster.flowset_hit_ratio":    {ratio(fsHits, fsHits+fsMisses), "ratio"},
		"netsim.runs_per_op":           {memoMisses / ops, "count"},
		"sched.plan_hit_ratio":         {ratio(planHits, planHits+planMisses), "ratio"},
		"sched.plan_lookups_per_op":    {(planHits + planMisses) / ops, "count"},
		"sched.stepper_events_per_op":  {c["netpart_sim_stepper_events_total"] / ops, "count"},
		"bench.trace_overhead_pct":     {100 * (ratio(untraced, h.Throughput) - 1), "%"},
	}
}

// spanTable summarises every span name of both passes: count, median
// duration and median self time, plus the admission wait per class.
func spanTable(h, l *passReport) []string {
	lines := []string{fmt.Sprintf("  %-6s %-22s %7s %12s %12s", "pass", "span", "count", "p50 ms", "p50 self ms")}
	for _, pass := range []struct {
		name  string
		spans []span
	}{{"http", h.Spans}, {"lib", l.Spans}} {
		self := selfTimes(pass.spans)
		durs, selfs := map[string][]float64{}, map[string][]float64{}
		for i, s := range pass.spans {
			durs[s.Name] = append(durs[s.Name], ms(s.dur()))
			selfs[s.Name] = append(selfs[s.Name], ms(self[i]))
		}
		names := make([]string, 0, len(durs))
		for n := range durs {
			names = append(names, n)
		}
		sort.Slice(names, func(a, b int) bool {
			ra, rb := spanRank[names[a]], spanRank[names[b]]
			return ra < rb || ra == rb && names[a] < names[b]
		})
		for _, n := range names {
			lines = append(lines, fmt.Sprintf("  %-6s %-22s %7d %12.4f %12.4f", pass.name, n, len(durs[n]), median(durs[n]), median(selfs[n])))
		}
	}
	var classes []string
	for k, v := range h.Counters {
		if strings.HasPrefix(k, "netpart_admission_wait_seconds_count{") && v > 0 {
			classes = append(classes, k)
		}
	}
	sort.Strings(classes)
	for _, k := range classes {
		sum := h.Counters[strings.Replace(k, "_count{", "_sum{", 1)]
		lines = append(lines, fmt.Sprintf("  admission wait %s: mean %.4f ms over %v", strings.TrimPrefix(k, "netpart_admission_wait_seconds_count"), 1000*sum/h.Counters[k], h.Counters[k]))
	}
	return lines
}

// writeSpans appends both passes' spans to path as JSON lines.
func writeSpans(path, workload string, h, l []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Workload string `json:"workload"`
		Pass     string `json:"pass"`
		span
	}
	for _, s := range h {
		if err := enc.Encode(line{workload, "http", s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range l {
		if err := enc.Encode(line{workload, "lib", s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
