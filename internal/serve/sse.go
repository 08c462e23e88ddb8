package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"netpart"
	"netpart/internal/obs"
)

// sseHeartbeat is the idle-comment interval keeping proxies from
// reaping quiet streams (a heavy flight can be minutes between
// progress units only when the worker pool is saturated; the comment
// is cheap insurance either way).
const sseHeartbeat = 15 * time.Second

// sseWriter frames Server-Sent Events onto a flushed response.
type sseWriter struct {
	w http.ResponseWriter
	c *http.ResponseController
}

func newSSEWriter(w http.ResponseWriter) *sseWriter {
	return &sseWriter{w: w, c: http.NewResponseController(w)}
}

// event writes one "event:/data:" frame (data JSON-encoded on a
// single line, per the SSE wire format) and flushes it.
func (s *sseWriter) event(name string, data any) error {
	body, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, body); err != nil {
		return err
	}
	return s.c.Flush()
}

// comment writes a heartbeat comment frame.
func (s *sseWriter) comment() error {
	if _, err := fmt.Fprint(s.w, ": ping\n\n"); err != nil {
		return err
	}
	return s.c.Flush()
}

// sseBuffer is each stream subscriber's frame buffer: deep enough to
// absorb a burst of simulation events between two client reads,
// shallow enough that a stalled client holds bounded memory (it loses
// frames instead; see fanout).
const sseBuffer = 64

// fanout broadcasts stream events to registered sinks without ever
// blocking the producer — a flight's progress path or a session's
// engine event tap. Sinks must not block. Stream subscribers are
// lossy channel sinks: a full buffer drops the frame (progress is
// monotone and the final result or metrics carry every point, job
// and event; the stream is a monitor, not the record), and every drop
// is counted on the shared per-stream counter and on the instance.
type fanout struct {
	drops   *obs.Counter // netpart_sse_dropped_frames_total{stream}
	dropped atomic.Int64 // this instance's drops

	mu    sync.Mutex
	sinks map[int]func(streamEvent)
	nsink int
}

// add registers a sink and returns the function that removes it. A
// nil sink registers nothing.
func (f *fanout) add(fn func(streamEvent)) (remove func()) {
	if fn == nil {
		return func() {}
	}
	f.mu.Lock()
	if f.sinks == nil {
		f.sinks = map[int]func(streamEvent){}
	}
	id := f.nsink
	f.nsink++
	f.sinks[id] = fn
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		delete(f.sinks, id)
		f.mu.Unlock()
	}
}

// subscribe registers a lossy channel of sseBuffer frames; the
// returned function unsubscribes it.
func (f *fanout) subscribe() (<-chan streamEvent, func()) {
	ch := make(chan streamEvent, sseBuffer)
	return ch, f.add(func(ev streamEvent) {
		select {
		case ch <- ev:
		default:
			f.drops.Inc()
			f.dropped.Add(1)
		}
	})
}

// publish hands the event to every sink, outside the lock.
func (f *fanout) publish(ev streamEvent) {
	f.mu.Lock()
	sinks := make([]func(streamEvent), 0, len(f.sinks))
	for _, fn := range f.sinks {
		sinks = append(sinks, fn)
	}
	f.mu.Unlock()
	for _, fn := range sinks {
		fn(ev)
	}
}

// streamSSE serves one fan-out as a Server-Sent-Events response until
// done closes or the client disconnects:
//
//	event: status  status() on connect, taken after subscribing so
//	               nothing lands between the snapshot and the stream
//	               (skipped when status returns nil)
//	event: <name>  every published event (lossy under backpressure)
//	event: done    once done closes: the events that raced it, then
//	               final(), then the stream closes
//
// Each heartbeat tick calls touch (when non-nil) and writes a comment
// frame. Disconnecting only detaches the stream.
func streamSSE(w http.ResponseWriter, r *http.Request, events *fanout, done <-chan struct{}, status, final func() any, touch func()) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell proxies not to buffer
	w.WriteHeader(http.StatusOK)

	out := newSSEWriter(w)
	sub, unsubscribe := events.subscribe()
	defer unsubscribe()
	if doc := status(); doc != nil && out.event("status", doc) != nil {
		return
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev := <-sub:
			if out.event(ev.name, eventDoc(ev)) != nil {
				return
			}
		case <-done:
			// Drain the events that raced done. This goroutine is the
			// only receiver, so every counted frame is there to take.
			for len(sub) > 0 {
				ev := <-sub
				if out.event(ev.name, eventDoc(ev)) != nil {
					return
				}
			}
			out.event("done", final()) //nolint:errcheck // closing anyway
			return
		case <-heartbeat.C:
			if touch != nil {
				touch()
			}
			if out.comment() != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// eventDoc converts a stream event's payload to its wire document.
func eventDoc(ev streamEvent) any {
	if p, ok := ev.data.(netpart.Progress); ok {
		return progressFor(p)
	}
	return ev.data
}
