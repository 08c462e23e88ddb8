// Package tracesim is the trace-driven multi-job scheduling simulator
// the paper's §5 scheduler extension builds toward: a discrete-event
// queue simulation over internal/sched (Grid, PlacementPolicy, EASY
// backfill) that answers "what would this allocation policy have done
// on a month of real jobs" instead of scoring policies on static job
// sets.
//
// A Spec composes a machine (the internal/scenario machine references:
// catalog names or explicit midplane grids), a placement policy, and a
// job trace from one of two sources — an inline job list or a seeded
// synthetic generator (Poisson / heavy-tail / burst arrivals × size
// and runtime distributions). Per-job contention is scored at
// placement time by the internal/sched/cluster scorer: a job that
// declares a communication pattern has its placed geometry's max-min
// fair round time (the busiest DOR link class's load over the link
// rate, in closed form from the ring lengths) compared against the
// best geometry of the same size, and the resulting dilation stretches
// its runtime — so allocation geometry feeds back into queue wait,
// exactly the avoidable contention the paper argues the scheduler
// owns.
//
// Specs are wire-friendly, validated and normalized: Normalize fills
// defaults and canonicalizes spellings so a normalized Spec's
// canonical JSON (Key) is a true result identity — the serving layer
// coalesces identical traces onto one simulation, like scenarios and
// sweeps. Runs are byte-deterministic: synthetic traces derive from
// the Spec's seed, the event loop is sequential, and per-job results
// land in job order.
package tracesim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"netpart/internal/faults"
	"netpart/internal/scenario"
	"netpart/internal/sched/cluster"
)

// Placement policies a trace may schedule under (the sched policies;
// spellings shared with package scenario).
const (
	PolicyFirstFit        = scenario.PolicyFirstFit
	PolicyBestBisection   = scenario.PolicyBestBisection
	PolicyContentionAware = scenario.PolicyContentionAware
)

// Communication patterns a job may declare. Patterned jobs are scored
// at midplane granularity on their placed geometry; the pattern
// spellings are shared with package scenario.
const (
	PatternPairing  = scenario.PatternPairing
	PatternAllToAll = scenario.PatternAllToAll
	PatternNeighbor = scenario.PatternNeighbor
)

// Synthetic arrival processes.
const (
	ArrivalPoisson   = "poisson"    // exponential interarrivals
	ArrivalHeavyTail = "heavy-tail" // Pareto (α=1.5) interarrivals, same mean
	ArrivalBurst     = "burst"      // BurstSize simultaneous arrivals per burst
)

// Synthetic runtime distributions.
const (
	RuntimeExp       = "exp"        // exponential around the mean
	RuntimeHeavyTail = "heavy-tail" // Pareto (α=1.5) around the mean
	RuntimeFixed     = "fixed"      // every job runs the mean
)

// Bounds and defaults.
const (
	// MaxJobs bounds one trace (inline or synthetic).
	MaxJobs = 4096
	// MaxAllToAllMidplanes bounds jobs declaring the quadratic
	// all-to-all pattern (the dilation scorer routes every ordered
	// midplane pair of the placed geometry).
	MaxAllToAllMidplanes = cluster.MaxAllToAllMidplanes
	// DefaultSeed seeds synthetic traces.
	DefaultSeed = int64(1)
	// DefaultRateHz is the synthetic mean arrival rate.
	DefaultRateHz = 0.05
	// DefaultBurstSize is the synthetic burst arrival batch.
	DefaultBurstSize = 8
	// DefaultMeanRuntimeSec is the synthetic mean job runtime.
	DefaultMeanRuntimeSec = 600.0
)

// defaultSizes is the synthetic size distribution's support when the
// spec leaves Sizes empty.
var defaultSizes = []int{1, 2, 4, 8}

// JobSpec is one trace entry: the cluster engine's job type.
type JobSpec = cluster.Job

// Synthetic is the seeded trace generator: an arrival process × a
// size distribution × a runtime distribution, deterministic in Seed.
type Synthetic struct {
	// Jobs is the trace length.
	Jobs int `json:"jobs"`
	// Seed drives every draw (default DefaultSeed).
	Seed int64 `json:"seed,omitempty"`
	// Arrival selects the arrival process (default poisson).
	Arrival string `json:"arrival,omitempty"`
	// RateHz is the mean arrival rate in jobs per second (default
	// DefaultRateHz).
	RateHz float64 `json:"rate_hz,omitempty"`
	// BurstSize is the batch size of the burst process (default
	// DefaultBurstSize; zeroed for other processes).
	BurstSize int `json:"burst_size,omitempty"`
	// Sizes is the support of the size distribution in midplanes
	// (default 1,2,4,8).
	Sizes []int `json:"sizes,omitempty"`
	// SizeWeights weights Sizes (uniform when empty; same length as
	// Sizes otherwise).
	SizeWeights []float64 `json:"size_weights,omitempty"`
	// Runtime selects the runtime distribution (default exp).
	Runtime string `json:"runtime,omitempty"`
	// MeanRuntimeSec is the runtime distribution's mean (default
	// DefaultMeanRuntimeSec).
	MeanRuntimeSec float64 `json:"mean_runtime_sec,omitempty"`
	// Pattern is the communication pattern assigned to patterned jobs
	// (default pairing; zeroed when PatternFraction is 0).
	Pattern string `json:"pattern,omitempty"`
	// PatternFraction is the probability a job declares Pattern and
	// becomes contention-bound (default 0: no patterned jobs).
	PatternFraction float64 `json:"pattern_fraction,omitempty"`
}

// Spec is one declarative trace simulation. The zero value is
// invalid; construct with a machine, a policy and exactly one job
// source and call Normalize.
type Spec struct {
	// Name is an optional human label, reported in titles.
	Name string `json:"name,omitempty"`
	// Machine is the simulated host: a catalog name or a midplane
	// grid shape (the scenario machine references).
	Machine string `json:"machine"`
	// Policy is the placement policy (default first-fit).
	Policy string `json:"policy,omitempty"`
	// Backfill enables EASY backfilling.
	Backfill bool `json:"backfill,omitempty"`
	// Jobs is the inline trace (exclusive with Synthetic).
	Jobs []JobSpec `json:"jobs,omitempty"`
	// Synthetic generates the trace (exclusive with Jobs).
	Synthetic *Synthetic `json:"synthetic,omitempty"`
	// Failures is the optional midplane failure model. Its windows
	// open and heal during the simulation: factor-0 windows kill and
	// requeue overlapping jobs and block their midplanes, fractional
	// factors dilate overlapping jobs' runtimes by 1/factor. No
	// windows means the failure holds for the whole run. nil is a
	// healthy machine; a failed run's metrics carry the healthy
	// baseline of the same spec and the deltas against it.
	Failures *faults.Spec `json:"failures,omitempty"`
}

// hostRules words the machine, policy and failure-model errors that a
// trace shares with a cluster session.
var hostRules = cluster.HostRules{Prefix: "tracesim", Noun: "trace", Runs: "trace simulations"}

func knownPattern(p string) bool {
	switch p {
	case PatternPairing, PatternAllToAll, PatternNeighbor:
		return true
	}
	return false
}

func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// normalizeSynthetic validates the generator and fills its defaults.
func (sy Synthetic) normalize() (Synthetic, error) {
	n := Synthetic{Jobs: sy.Jobs}
	if sy.Jobs < 1 || sy.Jobs > MaxJobs {
		return Synthetic{}, fmt.Errorf("tracesim: synthetic jobs %d out of range [1, %d]", sy.Jobs, MaxJobs)
	}
	n.Seed = sy.Seed
	if n.Seed == 0 {
		n.Seed = DefaultSeed
	}
	n.Arrival = strings.ToLower(strings.TrimSpace(sy.Arrival))
	if n.Arrival == "" {
		n.Arrival = ArrivalPoisson
	}
	switch n.Arrival {
	case ArrivalPoisson, ArrivalHeavyTail:
	case ArrivalBurst:
		n.BurstSize = sy.BurstSize
		if n.BurstSize == 0 {
			n.BurstSize = DefaultBurstSize
		}
		if n.BurstSize < 1 || n.BurstSize > MaxJobs {
			return Synthetic{}, fmt.Errorf("tracesim: burst size %d out of range [1, %d]", sy.BurstSize, MaxJobs)
		}
	default:
		return Synthetic{}, fmt.Errorf("tracesim: unknown arrival process %q (want poisson, heavy-tail or burst)", sy.Arrival)
	}
	if sy.BurstSize != 0 && n.Arrival != ArrivalBurst {
		return Synthetic{}, fmt.Errorf("tracesim: burst_size only applies to the burst arrival process")
	}
	n.RateHz = sy.RateHz
	if n.RateHz == 0 {
		n.RateHz = DefaultRateHz
	}
	if !finitePositive(n.RateHz) {
		return Synthetic{}, fmt.Errorf("tracesim: arrival rate %v is not positive and finite", sy.RateHz)
	}
	n.Sizes = sy.Sizes
	if len(n.Sizes) == 0 {
		n.Sizes = defaultSizes
	}
	n.Sizes = append([]int(nil), n.Sizes...)
	for i, s := range n.Sizes {
		if s < 1 {
			return Synthetic{}, fmt.Errorf("tracesim: size[%d] = %d, want >= 1", i, s)
		}
	}
	if len(sy.SizeWeights) > 0 {
		if len(sy.SizeWeights) != len(n.Sizes) {
			return Synthetic{}, fmt.Errorf("tracesim: %d size weights for %d sizes", len(sy.SizeWeights), len(n.Sizes))
		}
		for i, w := range sy.SizeWeights {
			if !finitePositive(w) {
				return Synthetic{}, fmt.Errorf("tracesim: size weight[%d] = %v is not positive and finite", i, w)
			}
		}
		n.SizeWeights = append([]float64(nil), sy.SizeWeights...)
	}
	n.Runtime = strings.ToLower(strings.TrimSpace(sy.Runtime))
	if n.Runtime == "" {
		n.Runtime = RuntimeExp
	}
	switch n.Runtime {
	case RuntimeExp, RuntimeHeavyTail, RuntimeFixed:
	default:
		return Synthetic{}, fmt.Errorf("tracesim: unknown runtime distribution %q (want exp, heavy-tail or fixed)", sy.Runtime)
	}
	n.MeanRuntimeSec = sy.MeanRuntimeSec
	if n.MeanRuntimeSec == 0 {
		n.MeanRuntimeSec = DefaultMeanRuntimeSec
	}
	if !finitePositive(n.MeanRuntimeSec) {
		return Synthetic{}, fmt.Errorf("tracesim: mean runtime %v is not positive and finite", sy.MeanRuntimeSec)
	}
	if sy.PatternFraction < 0 || sy.PatternFraction > 1 || math.IsNaN(sy.PatternFraction) {
		return Synthetic{}, fmt.Errorf("tracesim: pattern fraction %v out of range [0, 1]", sy.PatternFraction)
	}
	n.PatternFraction = sy.PatternFraction
	if n.PatternFraction > 0 {
		n.Pattern = strings.ToLower(strings.TrimSpace(sy.Pattern))
		if n.Pattern == "" {
			n.Pattern = PatternPairing
		}
		if !knownPattern(n.Pattern) {
			return Synthetic{}, fmt.Errorf("tracesim: unknown pattern %q (want pairing, all-to-all or neighbor)", sy.Pattern)
		}
		if n.Pattern == PatternAllToAll {
			for i, s := range n.Sizes {
				if s > MaxAllToAllMidplanes {
					return Synthetic{}, fmt.Errorf("tracesim: all-to-all size[%d] = %d exceeds the %d-midplane bound", i, s, MaxAllToAllMidplanes)
				}
			}
		}
	} else if strings.TrimSpace(sy.Pattern) != "" {
		return Synthetic{}, fmt.Errorf("tracesim: pattern set but pattern_fraction is 0")
	}
	return n, nil
}

// Normalize validates the spec and returns its canonical form:
// machine and policy spellings canonicalized, generator defaults
// filled, every knob that cannot affect the result zeroed. The
// returned spec's Key is the trace's cache identity.
func (s Spec) Normalize() (Spec, error) {
	machine, policy, err := hostRules.Host(s.Machine, s.Policy)
	if err != nil {
		return Spec{}, err
	}
	n := Spec{Name: strings.TrimSpace(s.Name), Machine: machine, Policy: policy, Backfill: s.Backfill}
	switch {
	case len(s.Jobs) > 0 && s.Synthetic != nil:
		return Spec{}, fmt.Errorf("tracesim: trace declares both inline jobs and a synthetic generator; want exactly one")
	case len(s.Jobs) > 0:
		if len(s.Jobs) > MaxJobs {
			return Spec{}, fmt.Errorf("tracesim: %d inline jobs exceed the %d-job bound", len(s.Jobs), MaxJobs)
		}
		n.Jobs = make([]JobSpec, len(s.Jobs))
		for i, j := range s.Jobs {
			nj, err := cluster.NormalizeJob(i, j)
			if err != nil {
				return Spec{}, fmt.Errorf("tracesim: %w", err)
			}
			n.Jobs[i] = nj
		}
	case s.Synthetic != nil:
		sy, err := s.Synthetic.normalize()
		if err != nil {
			return Spec{}, err
		}
		n.Synthetic = &sy
	default:
		return Spec{}, fmt.Errorf("tracesim: trace has no jobs (want an inline job list or a synthetic generator)")
	}
	if n.Failures, err = hostRules.Failures(s.Failures, n.Machine); err != nil {
		return Spec{}, err
	}
	return n, nil
}

// Key returns the canonical JSON encoding of the spec — the trace's
// cache identity. Call on a normalized Spec.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec contains only marshalable fields; unreachable.
		panic(fmt.Sprintf("tracesim: marshal spec: %v", err))
	}
	return string(b)
}

// Hash returns a short content hash of Key, used in experiment IDs.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:6])
}

// ID returns the synthesized experiment ID of the trace
// ("trace:abcdef012345"); like every dynamic ID it carries a ':', so
// it cannot collide with registry IDs.
func (s Spec) ID() string { return "trace:" + s.Hash() }

// JobCount returns the trace length without materializing it.
func (s Spec) JobCount() int {
	if s.Synthetic != nil {
		return s.Synthetic.Jobs
	}
	return len(s.Jobs)
}

// Cost classifies the trace for admission control. Queue simulations
// are never cheap — like sweeps, they must not starve the cheap
// registry artifacts they share the serving layer with — and long or
// machine-scale traces are heavy.
func (s Spec) Cost() string {
	if s.JobCount() > 1024 {
		return scenario.CostHeavy
	}
	if m, err := scenario.ResolveMachine(strings.ToLower(strings.TrimSpace(s.Machine))); err == nil && m.Midplanes() > 512 {
		return scenario.CostHeavy
	}
	return scenario.CostModerate
}

// Title returns the human label for reports.
func (s Spec) Title() string {
	if s.Name != "" {
		return s.Name
	}
	src := fmt.Sprintf("%d jobs", s.JobCount())
	if s.Synthetic != nil {
		src = fmt.Sprintf("%d %s jobs", s.Synthetic.Jobs, s.Synthetic.Arrival)
	}
	title := fmt.Sprintf("trace %s · %s · %s", s.Machine, s.Policy, src)
	if s.Backfill {
		title += " · backfill"
	}
	if s.Failures != nil {
		title += " · " + s.Failures.Model
	}
	return title
}
