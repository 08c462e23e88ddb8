// Package cluster is the incremental form of the trace-driven
// scheduling simulator: a long-running simulated cluster that accepts
// an open-ended stream of job submissions instead of a complete trace
// up front. The Engine factors tracesim's discrete-event loop (via
// sched.Stepper) into Submit / Advance / Step / Snapshot primitives
// with an event tap, keeping the placement-time contention scoring
// and runtime dilation of the batch simulator — tracesim.Run is
// rebuilt on this engine, byte-identical to its former self. Session
// adds the live-service layer: serialized concurrent access,
// idempotent client job IDs, a per-session virtual clock (free-running
// or real-time-scaled) and a final tracesim-shaped Metrics summary on
// close, which the serving layer exposes as POST /v1/cluster session
// resources.
package cluster

import (
	"fmt"
	"math"
	"strings"

	"netpart/internal/faults"
	"netpart/internal/scenario"
	"netpart/internal/sched"
)

// Placement policies and communication patterns share their spellings
// with the scenario and tracesim layers.
const (
	PolicyFirstFit        = scenario.PolicyFirstFit
	PolicyBestBisection   = scenario.PolicyBestBisection
	PolicyContentionAware = scenario.PolicyContentionAware

	PatternPairing  = scenario.PatternPairing
	PatternAllToAll = scenario.PatternAllToAll
	PatternNeighbor = scenario.PatternNeighbor
)

// Bounds and defaults.
const (
	// MaxAllToAllMidplanes bounds jobs declaring the quadratic
	// all-to-all pattern.
	MaxAllToAllMidplanes = 128
	// MaxSessionJobs bounds the total jobs one session accepts over
	// its lifetime (sessions are open-ended, so the bound is per
	// session, not per submission).
	MaxSessionJobs = 65536
	// MaxTimeScale bounds a real-time session's virtual seconds per
	// wall second.
	MaxTimeScale = 1e6
)

// Spec declares one cluster session: the simulated machine, the
// placement policy, optional EASY backfill, an optional failure model
// and the virtual clock mode. Unlike a tracesim Spec it carries no
// jobs — those stream in over the session's lifetime.
type Spec struct {
	// Name is an optional human label, reported in titles.
	Name string `json:"name,omitempty"`
	// Machine is the simulated host: a catalog name or a midplane grid
	// shape (the scenario machine references).
	Machine string `json:"machine"`
	// Policy is the placement policy (default first-fit).
	Policy string `json:"policy,omitempty"`
	// Backfill enables EASY backfilling.
	Backfill bool `json:"backfill,omitempty"`
	// Failures is the optional midplane failure model, with the same
	// semantics as tracesim: factor-0 windows kill and requeue
	// overlapping jobs, fractional factors dilate them; no windows
	// means the failure holds forever.
	Failures *faults.Spec `json:"failures,omitempty"`
	// TimeScale selects the virtual clock. 0 (the default) is a
	// free-running clock: the simulation advances to the latest
	// submitted arrival on every submission and drains to completion
	// on close, so replaying a complete trace reproduces the batch
	// simulator exactly. A positive value ties virtual time to wall
	// time — TimeScale virtual seconds elapse per wall second — so
	// events stream out live.
	TimeScale float64 `json:"time_scale,omitempty"`
}

// Job is one job of a trace or a session: its size, submission time,
// base runtime (its runtime on the best geometry of its size) and
// optional contention declaration. The engine identifies it by its
// dense engine ID (assigned at Submit in submission order); tracesim
// uses the same type for its trace entries.
type Job struct {
	Midplanes  int     `json:"midplanes"`
	ArrivalSec float64 `json:"arrival_sec"`
	RuntimeSec float64 `json:"runtime_sec"`
	// Pattern declares the job's communication pattern (pairing,
	// all-to-all or neighbor); patterned jobs are contention-scored on
	// their placed geometry. Empty means no pattern.
	Pattern string `json:"pattern,omitempty"`
	// ContentionBound applies the bisection-ratio stretch to jobs
	// without a declared pattern. It is implied for patterned jobs.
	ContentionBound bool `json:"contention_bound,omitempty"`
}

// KnownPattern reports whether p is a communication pattern the
// contention scorer knows: the one pattern set of jobs, traces and
// synthetic generators.
func KnownPattern(p string) bool {
	switch p {
	case PatternPairing, PatternAllToAll, PatternNeighbor:
		return true
	}
	return false
}

// FinitePositive reports whether v is a positive finite number, the
// rule for runtimes, rates and weights.
func FinitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// NormalizeJob validates job i and folds the patterned →
// contention-bound implication, so the two spellings share cache
// identity. Its errors carry no package prefix; each caller adds its
// own.
func NormalizeJob(i int, j Job) (Job, error) {
	if j.Midplanes < 1 {
		return Job{}, fmt.Errorf("job %d requests %d midplanes, want >= 1", i, j.Midplanes)
	}
	if !FinitePositive(j.RuntimeSec) {
		return Job{}, fmt.Errorf("job %d runtime %v is not positive and finite", i, j.RuntimeSec)
	}
	if j.ArrivalSec < 0 || math.IsInf(j.ArrivalSec, 0) || math.IsNaN(j.ArrivalSec) {
		return Job{}, fmt.Errorf("job %d arrival %v is not non-negative and finite", i, j.ArrivalSec)
	}
	j.Pattern = strings.ToLower(strings.TrimSpace(j.Pattern))
	if j.Pattern != "" {
		if !KnownPattern(j.Pattern) {
			return Job{}, fmt.Errorf("job %d pattern %q (want pairing, all-to-all or neighbor)", i, j.Pattern)
		}
		if j.Pattern == PatternAllToAll && j.Midplanes > MaxAllToAllMidplanes {
			return Job{}, fmt.Errorf("job %d declares all-to-all on %d midplanes, exceeding the %d-midplane bound", i, j.Midplanes, MaxAllToAllMidplanes)
		}
		j.ContentionBound = true
	}
	return j, nil
}

// HostRules are the machine, policy and failure-model checks that a
// cluster session and a trace share. The fields word the errors:
// Prefix is the package ("cluster", "tracesim"), Noun the spec
// ("session", "trace") and Runs what the package simulates ("cluster
// sessions", "trace simulations").
type HostRules struct{ Prefix, Noun, Runs string }

var sessionRules = HostRules{Prefix: "cluster", Noun: "session", Runs: "cluster sessions"}

// Host returns the canonical spellings of a machine reference and a
// placement policy (default first-fit).
func (r HostRules) Host(machine, policy string) (string, string, error) {
	if strings.TrimSpace(machine) == "" {
		return "", "", fmt.Errorf("%s: %s needs a machine (catalog name or midplane grid shape)", r.Prefix, r.Noun)
	}
	m, err := scenario.CanonicalMachine(machine)
	if err != nil {
		return "", "", err
	}
	p := strings.ToLower(strings.TrimSpace(policy))
	if p == "" {
		p = PolicyFirstFit
	}
	if _, ok := sched.PolicyByName(p); !ok {
		return "", "", fmt.Errorf("%s: unknown policy %q (want first-fit, best-bisection or contention-aware)", r.Prefix, policy)
	}
	return m, p, nil
}

// Failures normalizes an optional failure model for a canonical
// machine. Failures act at midplane granularity; the correlated region
// grows in midplane space here (a rack-level outage), unlike in
// scenarios where it grows over links.
func (r HostRules) Failures(f *faults.Spec, machine string) (*faults.Spec, error) {
	if f == nil {
		return nil, nil
	}
	n, err := f.Normalize()
	if err != nil {
		return nil, err
	}
	if !n.MidplaneScoped() && n.Model != faults.ModelCorrelatedRegion {
		return nil, fmt.Errorf("%s: failure model %q: %s model failures at midplane granularity (want midplanes, random_midplanes or correlated_region)", r.Prefix, n.Model, r.Runs)
	}
	if n.Model == faults.ModelMidplanes {
		m, err := scenario.ResolveMachine(machine)
		if err != nil {
			return nil, err
		}
		for _, id := range n.Midplanes {
			if id >= m.Midplanes() {
				return nil, fmt.Errorf("%s: failed midplane %d out of range [0, %d) on %s", r.Prefix, id, m.Midplanes(), machine)
			}
		}
	}
	return &n, nil
}

// Normalize validates the spec and returns its canonical form
// (machine and policy spellings canonicalized, failure model
// normalized) — the tracesim Spec rules, minus the job source.
func (s Spec) Normalize() (Spec, error) {
	machine, policy, err := sessionRules.Host(s.Machine, s.Policy)
	if err != nil {
		return Spec{}, err
	}
	n := Spec{Name: strings.TrimSpace(s.Name), Machine: machine, Policy: policy, Backfill: s.Backfill}
	if s.TimeScale != 0 {
		if math.IsNaN(s.TimeScale) || s.TimeScale < 0 || s.TimeScale > MaxTimeScale {
			return Spec{}, fmt.Errorf("cluster: time scale %v out of range [0, %v]", s.TimeScale, float64(MaxTimeScale))
		}
		n.TimeScale = s.TimeScale
	}
	if n.Failures, err = sessionRules.Failures(s.Failures, n.Machine); err != nil {
		return Spec{}, err
	}
	return n, nil
}

// Title returns the human label for reports and event streams.
func (s Spec) Title() string {
	if s.Name != "" {
		return s.Name
	}
	title := fmt.Sprintf("cluster %s · %s", s.Machine, s.Policy)
	if s.Backfill {
		title += " · backfill"
	}
	if s.Failures != nil {
		title += " · " + s.Failures.Model
	}
	return title
}
