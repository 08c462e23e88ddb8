package mpi

import (
	"math/rand"
	"testing"

	"netpart/internal/torus"
)

// TestRandomMatchedTrafficDeterministic generates random but
// deadlock-free communication scripts (every send has a matching
// receive) and checks that repeated executions agree exactly — the
// virtual-time engine's core guarantee under goroutine scheduling
// noise.
func TestRandomMatchedTrafficDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		script := randomScript(16, 40, seed)
		a := runScript(t, script)
		b := runScript(t, script)
		if a.Elapsed != b.Elapsed || a.Messages != b.Messages || a.TotalBytes != b.TotalBytes {
			t.Errorf("seed %d: nondeterministic: %+v vs %+v", seed, a, b)
		}
		if a.Messages != len(script) {
			t.Errorf("seed %d: %d messages delivered, want %d", seed, a.Messages, len(script))
		}
	}
}

// message is one scripted transfer.
type message struct {
	src, dst, tag int
	bytes         float64
	// order indices give each rank a deterministic program order.
	srcSeq, dstSeq int
}

// randomScript builds a random set of messages with per-rank program
// orders that are always satisfiable: each rank issues its sends and
// receives through nonblocking operations and waits at the end, so any
// matching is deadlock-free.
func randomScript(ranks, n int, seed int64) []message {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]message, 0, n)
	srcCount := make([]int, ranks)
	dstCount := make([]int, ranks)
	for i := 0; i < n; i++ {
		s := rng.Intn(ranks)
		d := rng.Intn(ranks)
		if s == d {
			d = (d + 1) % ranks
		}
		msgs = append(msgs, message{
			src: s, dst: d, tag: rng.Intn(4),
			bytes:  float64(1+rng.Intn(1000)) * 1e4,
			srcSeq: srcCount[s], dstSeq: dstCount[d],
		})
		srcCount[s]++
		dstCount[d]++
	}
	return msgs
}

func runScript(t *testing.T, script []message) Stats {
	t.Helper()
	tor := torus.MustNew(4, 2, 2)
	stats, err := Run(tor, func(c *Comm) {
		me := c.Rank()
		var reqs []*Request
		for _, m := range script {
			if m.src == me {
				reqs = append(reqs, c.Isend(m.dst, m.tag, nil, m.bytes))
			}
			if m.dst == me {
				reqs = append(reqs, c.Irecv(m.src, m.tag))
			}
		}
		for _, r := range reqs {
			r.Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestManyRanksShiftStorm: a larger engine workout — repeated ring
// shifts of rank-dependent sizes across 256 goroutine ranks, so flows
// finish and start at staggered times, complete and stay deterministic.
func TestManyRanksShiftStorm(t *testing.T) {
	tor := torus.MustNew(8, 8, 4)
	run := func() float64 {
		stats, err := Run(tor, func(c *Comm) {
			p, me := c.Size(), c.Rank()
			bytes := 1e4 * float64(1+me%5)
			for i := 1; i <= 3; i++ {
				c.Sendrecv((me+i)%p, i, nil, bytes, (me-i+p)%p, i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Elapsed
	}
	a := run()
	b := run()
	if a != b {
		t.Errorf("shift storm nondeterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Error("no time elapsed")
	}
}
