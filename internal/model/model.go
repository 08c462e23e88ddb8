// Package model maps the exact operation counts of the simulated
// algorithms onto wall-clock predictions for paper-scale runs — the
// runs too large to execute through the goroutine-per-rank engine
// (31,213 ranks multiplying 32,928^2 matrices). It is the explicit,
// auditable substitution for the authors' physical Blue Gene/Q nodes:
// a handful of calibration constants (below) convert communication
// volumes and flop counts into seconds.
//
// Calibration procedure (recorded in EXPERIMENTS.md): the link
// bandwidth is the published 2 GB/s/direction [12]; CoreFlopsPerSec is
// fixed so the 4-midplane matmul computation time matches the paper's
// reported 0.554 s; BisectFraction and LocalBytesPerNodePerSec are
// fixed so the 4-midplane communication times match Figure 5's
// current/proposed pair (0.37 s / 0.27 s); the remaining points of
// Figures 5 and 6 are predictions, compared against the paper in
// EXPERIMENTS.md.
package model

import (
	"fmt"

	"netpart/internal/bgq"
	"netpart/internal/strassen"
)

// Calibration constants.
const (
	// LinkBytesPerSec is the Blue Gene/Q link bandwidth per direction
	// [12].
	LinkBytesPerSec = 2e9
	// CoreFlopsPerSec is the effective per-core floating-point rate of
	// the CAPS leaf multiplications (calibrated; BG/Q A2 cores peak at
	// 12.8 Gflop/s, and ~2.4 effective is typical for in-cache DGEMM
	// fractions of a production code).
	CoreFlopsPerSec = 2.42e9
	// BisectFraction is the fraction of CAPS redistribution traffic
	// that crosses the partition bisection (calibrated; the rest stays
	// within recursion subgroups).
	BisectFraction = 0.151
	// LocalBytesPerNodePerSec is the effective per-node bandwidth of
	// the non-bisection traffic component (calibrated).
	LocalBytesPerNodePerSec = 1.826e9
	// StepOverheadSec is the fixed software/latency overhead charged
	// per BFS level (calibrated).
	StepOverheadSec = 2e-3
	// L2BytesPerNode is the shared L2 capacity of one BG/Q processor
	// (§4.3: 32 MB per node).
	L2BytesPerNode = 32 << 20
	// MemPenalty multiplies communication time when the working set
	// exceeds the combined L2 capacity, forcing the communication
	// cores through DRAM (§4.3's explanation of the super-linear
	// anomaly; calibrated).
	MemPenalty = 2.0
)

// MatmulConfig describes one matmul experiment execution, mirroring
// the rows of Tables 3 and 4.
type MatmulConfig struct {
	// N is the matrix dimension.
	N int
	// Ranks is the MPI rank count (f * 7^k).
	Ranks int
	// BFSSteps is the number of BFS recursion steps.
	BFSSteps int
	// Partition is the allocation the job runs in.
	Partition bgq.Partition
}

// Validate checks the CAPS constraints and the node capacity (at most
// 16 application cores per node, §4.2).
func (c MatmulConfig) Validate() error {
	if err := strassen.ValidateParams(c.Ranks, c.N); err != nil {
		return err
	}
	nodes := c.Partition.Nodes()
	if c.Ranks > 16*nodes {
		return fmt.Errorf("model: %d ranks exceed 16 cores x %d nodes", c.Ranks, nodes)
	}
	if c.N%(1<<uint(c.BFSSteps)) != 0 {
		return fmt.Errorf("model: dimension %d not divisible by 2^%d", c.N, c.BFSSteps)
	}
	return nil
}

// RanksPerNode returns the average MPI ranks per compute node
// (Table 3's "Avg cores per proc" column: one core per rank).
func (c MatmulConfig) RanksPerNode() float64 {
	return float64(c.Ranks) / float64(c.Partition.Nodes())
}

// MaxActiveCores returns the smallest power-of-two core budget that
// accommodates RanksPerNode (Table 3's "Max. active cores").
func (c MatmulConfig) MaxActiveCores() int {
	cores := 1
	for float64(cores) < c.RanksPerNode() {
		cores *= 2
	}
	return cores
}

// Prediction is the model's wall-clock estimate for one execution.
type Prediction struct {
	ComputeSec float64
	CommSec    float64
	// MemoryBound reports whether the working set exceeded the
	// combined L2 capacity (triggering MemPenalty).
	MemoryBound bool
	// BisectionSec and LocalSec decompose CommSec (before the memory
	// penalty and per-step overhead).
	BisectionSec float64
	LocalSec     float64
}

// PredictMatmul estimates computation and communication times for a
// CAPS execution in the given partition:
//
//	t_comm = [ phi*V/B_bisect + (1-phi)*V/(b_local*nodes) + l*t_step ] * eta
//
// where V is the exact CAPS redistribution volume (strassen.Costs), B
// the partition's internal bisection bandwidth, l the BFS step count,
// and eta the L2 working-set penalty.
func PredictMatmul(cfg MatmulConfig) (Prediction, error) {
	if err := cfg.Validate(); err != nil {
		return Prediction{}, err
	}
	costs, err := strassen.Costs(cfg.N, cfg.Ranks, strassen.AllBFS(cfg.BFSSteps))
	if err != nil {
		return Prediction{}, err
	}
	nodes := float64(cfg.Partition.Nodes())
	volume := costs.TotalWords * 8
	bisect := float64(cfg.Partition.BisectionBW()) * LinkBytesPerSec

	p := Prediction{
		ComputeSec:   costs.FlopsPerRank / CoreFlopsPerSec,
		BisectionSec: BisectFraction * volume / bisect,
		LocalSec:     (1 - BisectFraction) * volume / (LocalBytesPerNodePerSec * nodes),
	}
	comm := p.BisectionSec + p.LocalSec + float64(cfg.BFSSteps)*StepOverheadSec
	if strassen.WorkingSetBytes(cfg.N, cfg.BFSSteps) > CombinedL2Bytes(cfg.Partition) {
		p.MemoryBound = true
		comm *= MemPenalty
	}
	p.CommSec = comm
	return p, nil
}

// PairingConfig describes one bisection-pairing execution (§4.1).
type PairingConfig struct {
	Partition bgq.Partition
	// Rounds is the number of counted communication rounds (26 in the
	// paper: 30 minus 4 warm-up).
	Rounds int
	// ChunkBytes is the message chunk size (0.1342 GB in the paper).
	ChunkBytes float64
	// ChunksPerRound is the number of chunks each pair exchanges per
	// round (16 in the paper, totaling 2 GiB per round).
	ChunksPerRound int
}

// PaperPairing returns the paper's §4.1 parameters for a partition.
func PaperPairing(p bgq.Partition) PairingConfig {
	return PairingConfig{Partition: p, Rounds: 26, ChunkBytes: 0.1342e9, ChunksPerRound: 16}
}

// RoundBytes returns the per-pair, per-direction volume of one round.
func (c PairingConfig) RoundBytes() float64 {
	return c.ChunkBytes * float64(c.ChunksPerRound)
}

// StaticPairingTime is the closed-form prediction for the pairing
// benchmark: under deterministic dimension-ordered routing with
// positive tie-breaking, every node's flow to its antipode loads the
// longest dimension's positive links with N * (L/2) / N = L/2 flows
// per link... more precisely the bottleneck link carries
// (N * L/2) / (number of positive links in that dimension) = L/2
// flows when the dimension has length L >= 3; the per-round time is
// that flow count times RoundBytes / link bandwidth. Package
// experiments cross-checks this closed form against the full flow
// simulation.
func StaticPairingTime(c PairingConfig) float64 {
	shape := c.Partition.NodeShape()
	maxFlows := 0.0
	for _, a := range shape {
		if a < 3 {
			continue // length-2 dimensions carry 1 flow per link
		}
		if f := float64(a) / 2; f > maxFlows {
			maxFlows = f
		}
	}
	if maxFlows == 0 {
		maxFlows = 1
	}
	perRound := maxFlows * c.RoundBytes() / LinkBytesPerSec
	return float64(c.Rounds) * perRound
}

// CombinedL2Bytes returns the pooled L2 capacity of a partition
// (§4.3's 32, 64, 128 GB for 2, 4, 8 midplanes).
func CombinedL2Bytes(p bgq.Partition) float64 {
	return float64(p.Nodes()) * L2BytesPerNode
}

// SpeedupBound returns the paper's headline prediction: the runtime
// ratio between two equal-size partitions for a perfectly
// contention-bound workload equals the inverse ratio of their
// bisection bandwidths, capped at 2 for the geometries in Tables 1-2.
func SpeedupBound(worse, better bgq.Partition) (float64, error) {
	if worse.Nodes() != better.Nodes() {
		return 0, fmt.Errorf("model: partitions %v and %v differ in size", worse, better)
	}
	return float64(better.BisectionBW()) / float64(worse.BisectionBW()), nil
}
