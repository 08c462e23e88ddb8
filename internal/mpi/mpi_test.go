package mpi

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"netpart/internal/route"
	"netpart/internal/torus"
)

func line4() *torus.Torus { return torus.MustNew(4) }

func TestConfigErrors(t *testing.T) {
	if _, err := Run(nil, func(c *Comm) {}); err == nil {
		t.Error("missing topology should fail")
	}
}

func TestPingPong(t *testing.T) {
	const bytes = 2e9 // 1 second at 2 GB/s
	stats, err := Run(line4(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, "hello", bytes)
			if data := c.Recv(1, 8); data.(string) != "world" {
				t.Errorf("reply: %v", data)
			}
		case 1:
			if data := c.Recv(0, 7); data.(string) != "hello" {
				t.Errorf("message: %v", data)
			}
			c.Send(0, 8, "world", bytes)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two sequential 1-second transfers (latency floor is far below).
	if math.Abs(stats.Elapsed-2.0) > 1e-6 {
		t.Errorf("elapsed = %v, want 2.0", stats.Elapsed)
	}
	if stats.Messages != 2 || stats.TotalBytes != 2*bytes {
		t.Errorf("stats: %+v", stats)
	}
}

// TestLatencyFloor: a message too small to notice the bandwidth takes
// exactly its latency, the startup cost plus the per-hop cost of its
// route.
func TestLatencyFloor(t *testing.T) {
	stats, err := Run(line4(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Isend(1, 1, nil, 8).Wait()
		case 1:
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(alphaSec) + perHopSec; stats.Elapsed != want {
		t.Errorf("elapsed = %v, want %v", stats.Elapsed, want)
	}
}

// TestMultiRankPerNode: the rank layout. A torus runs one rank per
// node, so the only ranks that share a node are a rank and itself; a
// message between them crosses no link and costs the startup latency
// alone, whatever its size.
func TestMultiRankPerNode(t *testing.T) {
	tor := line4()
	stats, err := Run(tor, func(c *Comm) {
		if c.Size() != tor.NumVertices() {
			t.Errorf("size = %d, want one rank per node (%d)", c.Size(), tor.NumVertices())
		}
		if c.Rank() != 0 {
			return
		}
		req := c.Isend(0, 1, nil, 1e9)
		c.Recv(0, 1)
		req.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elapsed != alphaSec {
		t.Errorf("co-located transfer took %v, want latency only (%v)", stats.Elapsed, float64(alphaSec))
	}
}

func TestSendrecvBidirectionalNoContention(t *testing.T) {
	// Directed links: simultaneous opposite transfers do not share
	// capacity, so the exchange takes one transfer time.
	const bytes = 2e9
	stats, err := Run(line4(), func(c *Comm) {
		if c.Rank() > 1 {
			return
		}
		peer := 1 - c.Rank()
		data := c.Sendrecv(peer, 3, c.Rank(), bytes, peer, 3)
		if data.(int) != peer {
			t.Errorf("rank %d received %v", c.Rank(), data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.Elapsed-1.0) > 1e-5 {
		t.Errorf("elapsed = %v, want ~1.0", stats.Elapsed)
	}
}

// TestSendrecvShift sends to one neighbour while receiving from the
// other, around a ring of five ranks and two steps apart.
func TestSendrecvShift(t *testing.T) {
	_, err := Run(torus.MustNew(5), func(c *Comm) {
		p, me := c.Size(), c.Rank()
		for step := 1; step <= 2; step++ {
			dst, src := (me+step)%p, (me-step+p)%p
			if data := c.Sendrecv(dst, step, me, 8, src, step); data.(int) != src {
				t.Errorf("rank %d step %d received %v, want rank %d's", me, step, data, src)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContentionSharedLink(t *testing.T) {
	// On a ring of 4, DOR breaks the distance-2 tie toward the positive
	// direction: 0->2 crosses links (0,+) and (1,+), and 1->3 crosses
	// (1,+) and (2,+). The two flows share link (1,+).
	const bytes = 2e9
	stats, err := Run(line4(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, nil, bytes)
		case 1:
			c.Send(3, 1, nil, bytes)
		case 2:
			c.Recv(0, 1)
		case 3:
			c.Recv(1, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 flows at 1 GB/s each on the shared link -> 2 seconds.
	if math.Abs(stats.Elapsed-2.0) > 1e-5 {
		t.Errorf("elapsed = %v, want ~2.0", stats.Elapsed)
	}
}

func TestFIFOOrdering(t *testing.T) {
	// Every send and receive is posted before any completes, so one
	// matching step pairs the i-th receive with the i-th send.
	_, err := Run(line4(), func(c *Comm) {
		reqs := make([]*Request, 5)
		switch c.Rank() {
		case 0:
			for i := range reqs {
				reqs[i] = c.Isend(1, 4, i, 8)
			}
			for _, r := range reqs {
				r.Wait()
			}
		case 1:
			for i := range reqs {
				reqs[i] = c.Irecv(0, 4)
			}
			for i, r := range reqs {
				if data := r.WaitRecv(); data.(int) != i {
					t.Errorf("message %d arrived out of order: %v", i, data)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Order holds within a tag only: a receive matches its own tag even
	// when a message with another tag was sent first.
	_, err = Run(line4(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			first := c.Isend(1, 5, "five", 8)
			second := c.Isend(1, 6, "six", 8)
			first.Wait()
			second.Wait()
		case 1:
			for _, m := range []struct {
				tag  int
				want string
			}{{6, "six"}, {5, "five"}} {
				if data := c.Recv(0, m.tag); data.(string) != m.want {
					t.Errorf("Recv(0, %d) got %v, want %q", m.tag, data, m.want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := Run(line4(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 9) // no one sends
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error %q should mention deadlock", err)
	}
	// The report lists the unmatched operations in rank order, whatever
	// order the ranks reached the engine in.
	_, err = Run(line4(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 2)
		} else {
			c.Send(0, 1, nil, 8)
		}
	})
	if want := "[r1->r0 tag1 r2->r0 tag1 r3->r0 tag1 ]"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("deadlock report %v should list %s", err, want)
	}
}

func TestRankPanicPropagates(t *testing.T) {
	_, err := Run(line4(), func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
		if c.Rank() == 0 {
			c.Recv(1, 1) // would deadlock; must be aborted by the panic
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("expected panic error, got %v", err)
	}
}

func TestBcast(t *testing.T) {
	_, err := Run(torus.MustNew(8), func(c *Comm) {
		buf := make([]float64, 4)
		if c.Rank() == 3 {
			copy(buf, []float64{1, 2, 3, 4})
		}
		c.Bcast(3, buf)
		for i, v := range buf {
			if v != float64(i+1) {
				t.Errorf("rank %d buf[%d] = %v", c.Rank(), i, v)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	maxOp := func(acc, src []float64) {
		for i := range acc {
			acc[i] = math.Max(acc[i], src[i])
		}
	}
	_, err := Run(torus.MustNew(7), func(c *Comm) { // non-power-of-2
		mine := []float64{float64(c.Rank()), 1}
		sum := c.Reduce(2, mine, SumOp)
		if c.Rank() == 2 {
			if sum[0] != 21 || sum[1] != 7 { // 0+..+6=21
				t.Errorf("reduce = %v", sum)
			}
		} else if sum != nil {
			t.Errorf("non-root got %v", sum)
		}
		all := c.Allreduce(mine, SumOp)
		if all[0] != 21 || all[1] != 7 {
			t.Errorf("allreduce = %v at rank %d", all, c.Rank())
		}
		mx := c.Allreduce(mine, maxOp)
		if mx[0] != 6 || mx[1] != 1 {
			t.Errorf("allreduce max = %v", mx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A single rank reduces its own buffer without sending anything.
	stats, err := Run(torus.MustNew(1), func(c *Comm) {
		if all := c.Allreduce([]float64{7}, SumOp); all[0] != 7 {
			t.Errorf("single-rank allreduce = %v", all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 {
		t.Errorf("single-rank allreduce sent %d messages", stats.Messages)
	}
}

// TestDeterminismAcrossRuns: messages of rank-dependent sizes finish
// at staggered times, so flows start while others are in flight, and
// the run still ends at the same float under any GOMAXPROCS.
func TestDeterminismAcrossRuns(t *testing.T) {
	tor := torus.MustNew(8, 2)
	r := route.NewRouter(tor)
	run := func(procs int) Stats {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		stats, err := Run(tor, func(c *Comm) {
			peer := r.FurthestNode(c.Rank())
			bytes := 1e8 * float64(1+c.Rank()%3)
			for round := 0; round < 3; round++ {
				c.Sendrecv(peer, 1, nil, bytes, peer, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a := run(1)
	b := run(runtime.NumCPU())
	if a.Elapsed != b.Elapsed || a.Messages != b.Messages || a.TotalBytes != b.TotalBytes {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestPairingMatchesStaticPrediction runs the furthest-node pairing on
// a small torus through the full goroutine engine and checks the
// elapsed time equals the static bottleneck model — the consistency
// underlying Figures 3 and 4.
func TestPairingMatchesStaticPrediction(t *testing.T) {
	tor := torus.MustNew(8, 4, 2)
	const bytes = 2e9
	r := route.NewRouter(tor)
	stats, err := Run(tor, func(c *Comm) {
		peer := r.FurthestNode(c.Rank())
		c.Sendrecv(peer, 1, nil, bytes, peer, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	demands := make([]route.Demand, tor.NumVertices())
	for v := range demands {
		demands[v] = route.Demand{Src: v, Dst: r.FurthestNode(v), Bytes: bytes}
	}
	want := r.PredictTransferTime(demands, 2e9)
	if math.Abs(stats.Elapsed-want)/want > 1e-6 {
		t.Errorf("simulated %v vs static prediction %v", stats.Elapsed, want)
	}
}

func TestInvalidArgsPanicBecomeErrors(t *testing.T) {
	cases := map[string]func(c *Comm){
		"bad dst":      func(c *Comm) { c.Send(99, 1, nil, 8) },
		"neg bytes":    func(c *Comm) { c.Send(0, 1, nil, -8) },
		"neg tag":      func(c *Comm) { c.Send(0, -3, nil, 8) },
		"bad recv src": func(c *Comm) { c.Recv(99, 1) },
		"bad root":     func(c *Comm) { c.Bcast(99, nil) },
	}
	for name, body := range cases {
		_, err := Run(line4(), func(c *Comm) {
			if c.Rank() == 0 {
				body(c)
			}
		})
		if err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func BenchmarkEngineSendrecvRound(b *testing.B) {
	tor := torus.MustNew(8, 4, 4, 4, 2) // 2 midplanes, 1024 nodes
	r := route.NewRouter(tor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(tor, func(c *Comm) {
			peer := r.FurthestNode(c.Rank())
			c.Sendrecv(peer, 1, nil, 1e8, peer, 1)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
