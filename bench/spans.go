package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"netpart/internal/obs"
)

// span is one timed interval at a layer boundary. Op is the operation
// ID: the request ID the client sent, which the server honours and
// propagates to peers, or the same ID in the library pass. Times are
// nanoseconds since the pass started.
type span struct {
	Name  string `json:"name"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the pass ends. A nil recorder
// records nothing, so untraced runs pay only a nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) record(name, op string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, Op: op, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// time runs fn and records it as a span.
func (r *recorder) time(name, op string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.record(name, op, start, time.Now())
	return err
}

// wrap records a span named name around every request h serves;
// event-stream requests are named serve.sse instead, since their
// duration is the stream's, not the handler's work.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		n := name
		if strings.HasSuffix(req.URL.Path, "/events") {
			n = "serve.sse"
		}
		r.record(n, req.Header.Get(obs.RequestIDHeader), start, time.Now())
	})
}

// spanRank orders the span names of one operation's call tree: a
// span's children are the same operation's spans of the next rank
// that lie inside it.
var spanRank = map[string]int{
	"client.op":     0,
	"client.req":    1,
	"serve.handler": 2,
	"serve.sse":     2,
	"serve.peer":    3,

	"lib.sweep.RunPoints": 0,
	"lib.sweep.point":     1,
}

// selfTimes returns each span's self time: its duration minus the
// part of it covered by its children.
func selfTimes(spans []span) []time.Duration {
	byOp := map[string][]int{}
	for i, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	self := make([]time.Duration, len(spans))
	for _, idx := range byOp {
		for _, i := range idx {
			p := spans[i]
			rank, ok := spanRank[p.Name]
			var kids [][2]int64
			for _, j := range idx {
				c := spans[j]
				if cr, cok := spanRank[c.Name]; ok && cok && cr == rank+1 && c.Start >= p.Start && c.End <= p.End {
					kids = append(kids, [2]int64{c.Start, c.End})
				}
			}
			self[i] = p.dur() - time.Duration(covered(kids))
		}
	}
	return self
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// sumByOp sums the durations of the named spans per operation.
func sumByOp(spans []span, names ...string) map[string]time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if want[s.Name] {
			out[s.Op] += s.dur()
		}
	}
	return out
}
