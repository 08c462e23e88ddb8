package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netpart/internal/obs"
)

// workload is one traffic mix. Its operations are grouped into rounds
// of fixed composition: the seed decides their order and content, not
// their mix, so runs of different seeds measure the same work.
type workload interface {
	// clients is the closed loop's client count.
	clients() int
	// start brings up the workload's servers in e and points e.url at
	// the client-facing one.
	start(e *env) error
	// warm drives the fixed warm-up operations, which do not depend on
	// the seed.
	warm(ctx context.Context, e *env) error
	// round runs round r of the seeded operation sequence over HTTP
	// and checks every response; the error reports a failed check that
	// spans the whole round.
	round(ctx context.Context, e *env, r int) ([]opResult, error)
	// lib replays round r's operations against the library entry
	// points the server calls, and returns how many operations it
	// replayed.
	lib(ctx context.Context, rec *recorder, r int) (int, error)
	// pinned reports whether round 0's result ETags are pinned per
	// seed in golden.json.
	pinned() bool
}

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"advisor", "trace", "cluster", "fleet-sweep"}

var workloads = map[string]func(seed int64) workload{
	"advisor":     newAdvisor,
	"trace":       newTraces,
	"cluster":     newCluster,
	"fleet-sweep": newFleet,
}

// setupSamples is how many fresh processes the set-up time is the
// median of.
const setupSamples = 5

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → seed → the digest of round 0's result ETags.
func golden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// setup brings a workload to its measured state. A throwaway
// environment runs the fixed warm-up, which fills the process-wide
// caches (and the advisor's result store); then a fresh environment
// starts for the measured phase, with a cold result cache and warm
// process caches: the state of a long-running netpartd.
func setup(ctx context.Context, w workload, rec *recorder) (*env, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "env-")
	if err != nil {
		return nil, err
	}
	warm := newEnv(dir, nil)
	err = w.start(warm)
	if err == nil {
		err = w.warm(ctx, warm)
	}
	if serr := warm.stop(); err == nil {
		err = serr
	}
	e := newEnv(dir, rec)
	if err == nil {
		err = w.start(e)
	}
	if err != nil {
		e.close() //nolint:errcheck // reporting the set-up error
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return e, nil
}

// roundStat is one round's wall time, operation count and process CPU
// time.
type roundStat struct {
	dur time.Duration
	ops int
	cpu time.Duration
}

// phase is one measured phase.
type phase struct {
	rounds       []roundStat
	ops          []opResult
	failures     []string
	alloc        uint64             // bytes allocated during the phase
	heap         uint64             // live heap after a GC at heapRound
	counters     map[string]float64 // client-facing server's metric deltas
	peerCounters map[string]float64 // fleet worker's metric deltas
	digest       string             // round 0's result-ETag digest
}

func (ph *phase) failed() int {
	n := len(ph.failures)
	for _, o := range ph.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// messages lists the phase's round-level failures and its first
// failed operations.
func (ph *phase) messages() []string {
	out := append([]string(nil), ph.failures...)
	for _, o := range ph.ops {
		if o.err != nil && len(out) < 20 {
			out = append(out, o.err.Error())
		}
	}
	return out
}

// runPhase runs rounds until seconds have passed (or exactly rounds
// rounds, when rounds > 0). With a reference, it samples it before the
// first round and between rounds, as often as it takes to have one
// sample per refEvery of the phase so far; the samples fall outside the
// timed rounds.
func runPhase(ctx context.Context, w workload, e *env, seconds float64, rounds int, ref *reference) *phase {
	ph := &phase{}
	before, peerBefore := counters(e.reg), counters(e.peerReg)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	sampled := 0
	sampleRef := func() {
		for ref != nil && sampled <= int(time.Since(start)/refEvery) {
			if err := ref.sample(); err != nil {
				ph.failures = append(ph.failures, err.Error())
				ref = nil
			}
			sampled++
		}
	}
	sampleRef()
	for r := 0; ; r++ {
		t0, cpu0 := time.Now(), cpuTime()
		res, err := w.round(ctx, e, r)
		ph.rounds = append(ph.rounds, roundStat{dur: time.Since(t0), ops: len(res), cpu: cpuTime() - cpu0})
		ph.ops = append(ph.ops, res...)
		if err != nil {
			ph.failures = append(ph.failures, fmt.Sprintf("round %d: %v", r, err))
		}
		sampleRef()
		if r == 0 && w.pinned() {
			h := sha256.New()
			for _, o := range res {
				fmt.Fprintln(h, o.etag)
			}
			ph.digest = hex.EncodeToString(h.Sum(nil)[:16])
		}
		if r+1 == heapRound {
			ph.heap = liveHeap()
		}
		if (rounds > 0 && r+1 >= rounds) || (rounds <= 0 && time.Since(start).Seconds() >= seconds) {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	ph.alloc = ms.TotalAlloc - alloc0
	if len(ph.rounds) < heapRound {
		ph.heap = liveHeap()
	}
	ph.counters = delta(counters(e.reg), before)
	ph.peerCounters = delta(counters(e.peerReg), peerBefore)
	if n := ph.counters["netpart_peer_failed_total"]; n != 0 {
		ph.failures = append(ph.failures, fmt.Sprintf("%v peer dispatches fell back to local execution", n))
	}
	return ph
}

// heapRound is the round after which the retained heap is measured: a
// fixed amount of work, so the measure does not grow with the
// machine's speed. A phase with fewer rounds measures at its end.
const heapRound = 8

// liveHeap returns the heap still in use after full collections. The
// second collection frees what sync.Pool victim caches kept through
// the first.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkGolden compares the phase digest with the pinned one for this
// workload and seed, when there is one.
func checkGolden(name string, seed int64, ph *phase) error {
	if ph.digest == "" {
		return nil
	}
	g, err := golden()
	if err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if want, ok := g[name][strconv.FormatInt(seed, 10)]; ok && want != ph.digest {
		return fmt.Errorf("result digest %s, golden.json pins %s", ph.digest, want)
	}
	return nil
}

// endToEnd computes the end-to-end metrics of a measured phase, with
// every wall time, setupS included, multiplied by k.wall and the CPU
// time by k.cpu.
func endToEnd(ph *phase, setupS float64, k scale) map[string]metric {
	n := float64(len(ph.ops))
	lat := make([]float64, len(ph.ops))
	for i, o := range ph.ops {
		lat[i] = ms(o.end.Sub(o.start)) * k.wall
	}
	var tput []float64
	var cpu time.Duration
	for _, r := range ph.rounds {
		tput = append(tput, float64(r.ops)/r.dur.Seconds()/k.wall)
		cpu += r.cpu
	}
	return map[string]metric{
		"setup_s":          {setupS * k.wall, "s"},
		"throughput_ops_s": {median(tput), "1/s"},
		"latency_p50_ms":   {percentile(lat, 50), "ms"},
		"latency_p95_ms":   {percentile(lat, 95), "ms"},
		"cpu_ms_per_op":    {ms(cpu) * k.cpu / n, "ms"},
		"alloc_mb_per_op":  {float64(ph.alloc) / 1e6 / n, "MB"},
		"retained_heap_mb": {float64(ph.heap) / 1e6, "MB"},
	}
}

// newDoc starts a workload's result document from its measured phase.
func newDoc(name string, cfg config, w workload, started time.Time, ph *phase) *resultDoc {
	doc := &resultDoc{
		Header:    newHeader(cfg, w.clients(), started),
		Workload:  name,
		Traced:    cfg.trace,
		Attempted: len(ph.ops),
		Failed:    ph.failed(),
		Digest:    ph.digest,
		Failures:  ph.messages(),
	}
	doc.Header.Rounds = len(ph.rounds)
	doc.Header.Ops = len(ph.ops)
	gerr := checkGolden(name, cfg.seed, ph)
	if gerr != nil {
		doc.Failures = append(doc.Failures, gerr.Error())
	}
	doc.Correct = doc.Failed == 0 && gerr == nil
	return doc
}

// runMeasured is the untraced run: set-up time sampled in fresh
// processes, then one set-up and measured phase in this process, with
// the reference sampled throughout.
func runMeasured(ctx context.Context, name string, cfg config) (doc *resultDoc, err error) {
	started := time.Now()
	ref, err := startReference(ctx)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ref.close(); err == nil && cerr != nil {
			doc, err = nil, cerr
		}
	}()
	// A reference sample before and after each set-up process.
	if err := ref.sample(); err != nil {
		return nil, err
	}
	setups := make([]float64, setupSamples)
	for i := range setups {
		d, err := timeSetup(ctx, name, cfg.seed)
		if err != nil {
			return nil, err
		}
		if err := ref.sample(); err != nil {
			return nil, err
		}
		setups[i] = d.Seconds()
	}
	w := workloads[name](cfg.seed)
	e, err := setup(ctx, w, nil)
	if err != nil {
		return nil, err
	}
	ph := runPhase(ctx, w, e, cfg.seconds, cfg.rounds, ref)
	if err := e.close(); err != nil {
		return nil, err
	}
	doc = newDoc(name, cfg, w, started, ph)
	doc.Header.ReferenceWallMS, doc.Header.ReferenceCPUMS = median(ref.wall)/1e6, median(ref.cpu)/1e6
	k := ref.scale()
	doc.e2e = endToEnd(ph, median(setups), k)
	doc.Metrics = doc.e2e
	doc.summary = append(summaryHead(doc, ph),
		fmt.Sprintf("  set-up samples (s): %.3f", setups),
		fmt.Sprintf("  reference, median of %d samples: wall %.3f ms, cpu %.3f ms; timings scale by %.4f (wall) and %.4f (cpu)",
			len(ref.wall), doc.Header.ReferenceWallMS, doc.Header.ReferenceCPUMS, k.wall, k.cpu),
		"  as measured:")
	doc.summary = append(doc.summary, formatMetrics(endToEnd(ph, median(setups), unscaled))...)
	doc.summary = append(doc.summary, "  in reference-host time (the result):")
	doc.summary = append(doc.summary, formatMetrics(doc.Metrics)...)
	return doc, nil
}

// summaryHead is the first lines of a workload's report.
func summaryHead(doc *resultDoc, ph *phase) []string {
	h := doc.Header
	var wall time.Duration
	for _, r := range ph.rounds {
		wall += r.dur
	}
	lines := []string{
		fmt.Sprintf("== %s · seed %d · %s · GOMAXPROCS %d · nproc %d · rev %s", doc.Workload, h.Seed, h.GoVersion, h.GOMAXPROCS, h.NProc, h.Revision),
		fmt.Sprintf("  measured: %d rounds, %d ops in %.2f s, %d client(s)", h.Rounds, h.Ops, wall.Seconds(), h.Clients),
		fmt.Sprintf("  error_rate %g (%d failed of %d)", float64(doc.Failed)/math.Max(1, float64(doc.Attempted)), doc.Failed, doc.Attempted),
	}
	if doc.Digest != "" {
		lines = append(lines, "  round-0 result digest "+doc.Digest)
	}
	for _, f := range doc.Failures {
		lines = append(lines, "  FAIL "+f)
	}
	return lines
}

// counters flattens a registry snapshot: every family's total under
// its name (histograms as name_count and name_sum) and every labelled
// series under name{k=v,...}.
func counters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			keys := make([]string, 0, len(s.Labels))
			for k, v := range s.Labels {
				keys = append(keys, k+"="+v)
			}
			sort.Strings(keys)
			suffix := ""
			if len(keys) > 0 {
				suffix = "{" + strings.Join(keys, ",") + "}"
			}
			if f.Type == "histogram" {
				out[f.Name+"_count"] += float64(s.Count)
				out[f.Name+"_sum"] += s.Sum
				out[f.Name+"_count"+suffix] += float64(s.Count)
				out[f.Name+"_sum"+suffix] += s.Sum
				continue
			}
			out[f.Name] += s.Value
			if suffix != "" {
				out[f.Name+suffix] += s.Value
			}
		}
	}
	return out
}

func delta(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the p-th percentile of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
