package mpi

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"netpart/internal/route"
	"netpart/internal/torus"
)

func line4() Config {
	return Config{Topology: torus.MustNew(4)}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := line4().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ranks != 4 || cfg.LinkGBps != 2.0 || cfg.AlphaSec != 2e-6 || cfg.PerHopSec != 45e-9 {
		t.Errorf("defaults: %+v", cfg)
	}
	if len(cfg.RankToNode) != 4 || cfg.RankToNode[3] != 3 {
		t.Errorf("identity mapping: %v", cfg.RankToNode)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Run(Config{}, func(c *Comm) {}); err == nil {
		t.Error("missing topology should fail")
	}
	if _, err := Run(Config{Topology: torus.MustNew(2), Ranks: 5}, func(c *Comm) {}); err == nil {
		t.Error("more ranks than nodes without mapping should fail")
	}
	if _, err := Run(Config{Topology: torus.MustNew(2), Ranks: 2, RankToNode: []int{0}}, func(c *Comm) {}); err == nil {
		t.Error("short mapping should fail")
	}
	if _, err := Run(Config{Topology: torus.MustNew(2), Ranks: 1, RankToNode: []int{7}}, func(c *Comm) {}); err == nil {
		t.Error("invalid node should fail")
	}
	if _, err := Run(Config{Topology: torus.MustNew(2), LinkGBps: -1}, func(c *Comm) {}); err == nil {
		t.Error("negative bandwidth should fail")
	}
}

func TestPingPong(t *testing.T) {
	cfg := Config{Topology: torus.MustNew(4), AlphaSec: 1e-6, PerHopSec: 1e-7, LinkGBps: 2.0}
	const bytes = 2e9 // 1 second at 2 GB/s
	stats, err := Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, "hello", bytes)
			data, st := c.Recv(1, 8)
			if data.(string) != "world" || st.Source != 1 || st.Tag != 8 {
				t.Errorf("reply: %v %+v", data, st)
			}
		case 1:
			data, st := c.Recv(0, 7)
			if data.(string) != "hello" || st.Source != 0 || st.Tag != 7 {
				t.Errorf("message: %v %+v", data, st)
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

func TestLatencyFloor(t *testing.T) {
	cfg := Config{Topology: torus.MustNew(4), AlphaSec: 1e-3, PerHopSec: 0}
	stats, err := Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, nil, 8) // tiny message: latency-bound
		case 1:
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// PerHopSec zero means "default", so allow the default per-hop cost.
	if math.Abs(stats.Elapsed-1e-3) > 1e-6 {
		t.Errorf("elapsed = %v, want ~1e-3", stats.Elapsed)
	}
}

func TestSendrecvBidirectionalNoContention(t *testing.T) {
	// Directed links: simultaneous opposite transfers do not share
	// capacity, so the exchange takes one transfer time.
	cfg := Config{Topology: torus.MustNew(4), LinkGBps: 2.0}
	const bytes = 2e9
	stats, err := Run(cfg, func(c *Comm) {
		if c.Rank() > 1 {
			return
		}
		peer := 1 - c.Rank()
		data, _ := c.Sendrecv(peer, 3, c.Rank(), bytes, peer, 3)
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
	cfg := Config{Topology: torus.MustNew(5)}
	_, err := Run(cfg, func(c *Comm) {
		p, me := c.Size(), c.Rank()
		for step := 1; step <= 2; step++ {
			dst, src := (me+step)%p, (me-step+p)%p
			data, st := c.Sendrecv(dst, step, me, 8, src, step)
			if data.(int) != src || st.Source != src || st.Tag != step {
				t.Errorf("rank %d step %d received %v %+v, want rank %d's", me, step, data, st, src)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContentionSharedLink(t *testing.T) {
	// Ranks 0 and 1 both send to their +1 neighbour... on a ring of 4
	// with DOR, 0->1 uses link (0,+) and 1->2 uses link (1,+): no
	// sharing. To force sharing, send 0->2 and 0->... use two messages
	// from rank 0's node: both traverse link (0,+).
	tor := torus.MustNew(4)
	cfg := Config{Topology: tor, Ranks: 4, RankToNode: []int{0, 0, 2, 2}, LinkGBps: 2.0}
	const bytes = 2e9
	stats, err := Run(cfg, func(c *Comm) {
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
	// Both flows share links (0,+) and (1,+): 2 flows at 1 GB/s each ->
	// 2 seconds.
	if math.Abs(stats.Elapsed-2.0) > 1e-5 {
		t.Errorf("elapsed = %v, want ~2.0", stats.Elapsed)
	}
	_ = stats
}

func TestComputeOverlap(t *testing.T) {
	cfg := line4()
	stats, err := Run(cfg, func(c *Comm) {
		c.Compute(float64(c.Rank()) * 0.5)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Computes overlap: elapsed = max = 1.5; total accounted = 3.0.
	if math.Abs(stats.Elapsed-1.5) > 1e-9 {
		t.Errorf("elapsed = %v, want 1.5", stats.Elapsed)
	}
	if math.Abs(stats.ComputeSeconds-3.0) > 1e-9 {
		t.Errorf("compute seconds = %v, want 3.0", stats.ComputeSeconds)
	}
}

func TestFIFOOrdering(t *testing.T) {
	cfg := line4()
	_, err := Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 5; i++ {
				c.Send(1, 4, i, 8)
			}
		case 1:
			for i := 0; i < 5; i++ {
				data, _ := c.Recv(0, 4)
				if data.(int) != i {
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
	_, err = Run(cfg, func(c *Comm) {
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
				data, st := c.Recv(0, m.tag)
				if data.(string) != m.want || st.Tag != m.tag {
					t.Errorf("Recv(0, %d) got %v %+v, want %q", m.tag, data, st, m.want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWildcards(t *testing.T) {
	cfg := line4()
	_, err := Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 1, 2, 3:
			c.Send(0, c.Rank(), c.Rank()*10, 8)
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				data, st := c.Recv(AnySource, AnyTag)
				if data.(int) != st.Source*10 || st.Tag != st.Source {
					t.Errorf("mismatched wildcard recv: %v %+v", data, st)
				}
				if seen[st.Source] {
					t.Errorf("duplicate source %d", st.Source)
				}
				seen[st.Source] = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	cfg := line4()
	_, err := Run(cfg, func(c *Comm) {
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
}

func TestRankPanicPropagates(t *testing.T) {
	cfg := line4()
	_, err := Run(cfg, func(c *Comm) {
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

func TestBarrierSynchronizes(t *testing.T) {
	cfg := line4()
	var after [4]float64
	_, err := Run(cfg, func(c *Comm) {
		c.Compute(float64(c.Rank()) * 0.25) // stagger arrivals
		c.Barrier()
		after[c.Rank()] = c.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// No rank may leave the barrier before the slowest arrival (0.75s).
	for r, ts := range after {
		if ts < 0.75 {
			t.Errorf("rank %d left barrier at %v, before slowest arrival", r, ts)
		}
	}
}

func TestBcast(t *testing.T) {
	cfg := Config{Topology: torus.MustNew(8)}
	_, err := Run(cfg, func(c *Comm) {
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
	cfg := Config{Topology: torus.MustNew(8), Ranks: 7} // non-power-of-2
	_, err := Run(cfg, func(c *Comm) {
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
		mx := c.Allreduce(mine, MaxOp)
		if mx[0] != 6 || mx[1] != 1 {
			t.Errorf("allreduce max = %v", mx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A single rank reduces its own buffer without sending anything.
	stats, err := Run(Config{Topology: torus.MustNew(2), Ranks: 1}, func(c *Comm) {
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

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(procs int) Stats {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		tor := torus.MustNew(8, 2)
		cfg := Config{Topology: tor}
		stats, err := Run(cfg, func(c *Comm) {
			r := route.NewRouter(tor)
			peer := r.FurthestNode(c.e.cfg.RankToNode[c.Rank()])
			for round := 0; round < 3; round++ {
				c.Sendrecv(peer, 1, nil, 1e8, peer, 1)
			}
			c.Compute(1e-3)
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
	cfg := Config{Topology: tor, AlphaSec: 1e-9, PerHopSec: 0}
	const bytes = 2e9
	r := route.NewRouter(tor)
	stats, err := Run(cfg, func(c *Comm) {
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
		"neg compute":  func(c *Comm) { c.Compute(-1) },
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

func TestMultiRankPerNode(t *testing.T) {
	// Two ranks per node; messages between co-located ranks cost only
	// latency.
	tor := torus.MustNew(2)
	cfg := Config{Topology: tor, Ranks: 4, RankToNode: []int{0, 0, 1, 1}, AlphaSec: 1e-6}
	stats, err := Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, nil, 1e9)
		case 1:
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.Elapsed-1e-6) > 1e-12 {
		t.Errorf("intra-node transfer took %v, want latency only", stats.Elapsed)
	}
}

func BenchmarkEngineSendrecvRound(b *testing.B) {
	tor := torus.MustNew(8, 4, 4, 4, 2) // 2 midplanes, 1024 nodes
	r := route.NewRouter(tor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{Topology: tor}, func(c *Comm) {
			peer := r.FurthestNode(c.Rank())
			c.Sendrecv(peer, 1, nil, 1e8, peer, 1)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
