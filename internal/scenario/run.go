package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"netpart/internal/model"
	"netpart/internal/netsim"
	"netpart/internal/route"
	"netpart/internal/tabulate"
	"netpart/internal/workload"
)

// simCancelStride bounds the work between context checks: demands
// routed in the analysis pass, and flow starts in the flow-level
// simulation (mirroring the pairing experiments).
const simCancelStride = 256

// Outcome is the result of running one scenario: the resolved
// topology, the generated workload, the static bottleneck analysis
// (the paper's §4.1 contention model) and, when enabled, the
// flow-level max-min fair simulation. All fields are deterministic
// functions of the normalized Spec.
type Outcome struct {
	Spec Spec `json:"spec"`

	// Topology.
	Topology    string `json:"topology"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	Geometry    string `json:"geometry,omitempty"`     // partition midplane geometry
	BisectionBW int    `json:"bisection_bw,omitempty"` // partition internal bisection (links)

	// Workload.
	Demands    int     `json:"demands"`
	TotalBytes float64 `json:"total_bytes"`

	// Static contention analysis under the deterministic routing.
	MaxLinkBytes  float64 `json:"max_link_bytes"`
	Bottleneck    string  `json:"bottleneck,omitempty"`
	ActiveLinks   int     `json:"active_links"`
	MeanLinkBytes float64 `json:"mean_link_bytes"`
	IdealSec      float64 `json:"ideal_sec"`
	StaticSec     float64 `json:"static_sec"`
	ContentionX   float64 `json:"contention_x"`

	// Flow-level simulation (Spec.Sim).
	SimSec    float64 `json:"sim_sec,omitempty"`
	SimRounds int     `json:"sim_rounds,omitempty"`

	// Failure reporting (Spec.Failures). FailedLinks counts links
	// removed from routing (factor 0), DegradedLinks links running at
	// CapacityFactor, FailedMidplanes machine cells excluded from
	// placement.
	FailedLinks     int     `json:"failed_links,omitempty"`
	DegradedLinks   int     `json:"degraded_links,omitempty"`
	FailedMidplanes int     `json:"failed_midplanes,omitempty"`
	CapacityFactor  float64 `json:"capacity_factor,omitempty"`
	// Healthy is the baseline of the same spec with failures stripped,
	// plus the robustness deltas against it. Set iff Spec.Failures is.
	Healthy *Robustness `json:"healthy,omitempty"`
}

// Robustness is the healthy baseline of a failed scenario and the
// deltas the failure cost: DegradationX is failed/healthy static
// bottleneck time (>= 1 when the failure hurts), ContentionDeltaX the
// same ratio of contention factors (isolating route-quality loss from
// raw capacity loss).
type Robustness struct {
	IdealSec         float64 `json:"ideal_sec"`
	StaticSec        float64 `json:"static_sec"`
	ContentionX      float64 `json:"contention_x"`
	SimSec           float64 `json:"sim_sec,omitempty"`
	DegradationX     float64 `json:"degradation_x"`
	ContentionDeltaX float64 `json:"contention_delta_x"`
}

// Run executes the scenario: normalize, resolve the topology, build
// the workload, run the static analysis and (optionally) the
// flow-level simulation. The context is checked between phases, every
// simCancelStride demands routed and every simCancelStride flow
// starts.
func Run(ctx context.Context, spec Spec) (*Outcome, error) {
	return runWith(ctx, spec, analyze)
}

// analyzer fills an outcome's static analysis and, when the spec
// enables it, its simulation from the resolved network and demands.
// Run passes analyze; the package's tests pass the reference analysis
// the one pass replaced, and compare outcomes byte for byte.
type analyzer func(ctx context.Context, s Spec, net *network, demands []route.Demand, out *Outcome) error

func runWith(ctx context.Context, spec Spec, an analyzer) (*Outcome, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	net, err := norm.resolve()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &Outcome{
		Spec:     norm,
		Topology: net.label,
		Vertices: net.vertices,
		Edges:    net.edges,
	}
	if net.partition != nil {
		out.Geometry = net.partition.String()
		out.BisectionBW = net.partition.BisectionBW()
	}

	demands, err := norm.demands(net)
	if err != nil {
		return nil, err
	}
	out.Demands = len(demands)
	out.TotalBytes = workload.TotalBytes(demands)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if err := an(ctx, norm, net, demands, out); err != nil {
		return nil, err
	}

	// Robustness: report the failure's blast radius and run the
	// healthy twin of the same spec for the baseline deltas.
	if f := norm.Failures; f != nil {
		if f.Factor > 0 && f.Factor < 1 {
			out.DegradedLinks = len(net.faultLinks)
			out.CapacityFactor = f.Factor
		} else if f.Factor == 0 {
			out.FailedLinks = len(net.faultLinks)
		}
		out.FailedMidplanes = len(net.faultMidplanes)

		healthy := norm
		healthy.Failures = nil
		h, err := runWith(ctx, healthy, an)
		if err != nil {
			return nil, fmt.Errorf("scenario: healthy baseline: %w", err)
		}
		rb := &Robustness{
			IdealSec:    h.IdealSec,
			StaticSec:   h.StaticSec,
			ContentionX: h.ContentionX,
			SimSec:      h.SimSec,
		}
		if h.StaticSec > 0 {
			rb.DegradationX = out.StaticSec / h.StaticSec
		}
		if h.ContentionX > 0 {
			rb.ContentionDeltaX = out.ContentionX / h.ContentionX
		}
		out.Healthy = rb
	}
	return out, nil
}

// demands builds the workload on the resolved network.
func (s Spec) demands(net *network) ([]route.Demand, error) {
	w := s.Workload
	if net.router != nil {
		switch w.Pattern {
		case PatternPairing:
			return workload.BisectionPairing(net.router, w.Bytes)
		case PatternPermutation:
			return workload.RandomPermutation(net.tor, w.Bytes, rand.New(rand.NewSource(w.Seed)))
		case PatternAllToAll:
			return workload.AllToAll(net.tor, w.Bytes)
		case PatternNeighbor:
			return workload.NearestNeighbor(net.tor, w.Bytes)
		case PatternLongestDim:
			return workload.LongestDimShift(net.tor, w.Bytes)
		case PatternAdversarial:
			return workload.NearWorstCase(net.tor, w.Bytes, w.Iters, w.Seed)
		}
		return nil, fmt.Errorf("scenario: unknown pattern %q", w.Pattern)
	}
	gn := net.gnet
	switch w.Pattern {
	case PatternPairing:
		return gn.pairing(w.Bytes), nil
	case PatternPermutation:
		return gn.permutation(w.Bytes, rand.New(rand.NewSource(w.Seed))), nil
	case PatternAllToAll:
		if gn.n > workload.MaxAllToAllNodes {
			return nil, fmt.Errorf("scenario: all-to-all on %d vertices exceeds the %d-vertex bound", gn.n, workload.MaxAllToAllNodes)
		}
		return gn.allToAll(w.Bytes), nil
	case PatternNeighbor:
		return gn.neighbors(w.Bytes), nil
	}
	return nil, fmt.Errorf("scenario: pattern %q is not available on %s topologies", w.Pattern, s.Topology.Kind)
}

// analyze is the §4.1 static contention model and, with Spec.Sim, the
// flow-level simulation. The static model is one pass over the
// demands: each is routed, and its bytes are added to the loads of
// the links on its route, in demand-then-hop order, while its
// alone-time on those links is taken. DOR routes into one reused
// buffer and keeps no route, so a torus or partition pass holds only
// the demands and one load per directed link (plus one capacity per
// link when degraded links scale some of them).
func analyze(ctx context.Context, s Spec, net *network, demands []route.Demand, out *Outcome) error {
	routeOf, err := net.routing(demands)
	if err != nil {
		return err
	}
	caps := net.capacities()
	load := make([]float64, net.numLinks())
	var buf []int
	for i, d := range demands {
		if i%simCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if buf, err = routeOf(i, buf[:0]); err != nil {
			return err
		}
		// Ideal: the slowest flow with all contention removed — each
		// flow alone at full capacity is paced by the slowest link on
		// its own route, so heterogeneous capacities (Dragonfly's
		// weighted links) count only where a flow actually crosses
		// them.
		alone := 0.0
		for _, l := range buf {
			load[l] += d.Bytes
			if sec := d.Bytes / caps.at(l); sec > alone {
				alone = sec
			}
		}
		if alone > out.IdealSec {
			out.IdealSec = alone
		}
	}

	// Bottleneck: the per-directed-link byte load normalized by link
	// capacity.
	maxSec, maxLink := 0.0, -1
	for l, b := range load {
		if b <= 0 {
			continue
		}
		out.ActiveLinks++
		out.MeanLinkBytes += b
		if sec := b / caps.at(l); sec > maxSec {
			maxSec, maxLink = sec, l
		}
	}
	out.StaticSec = maxSec
	if maxLink >= 0 {
		out.Bottleneck = net.linkName(maxLink)
		out.MaxLinkBytes = load[maxLink]
	}
	if out.ActiveLinks > 0 {
		out.MeanLinkBytes /= float64(out.ActiveLinks)
	}
	if out.IdealSec > 0 {
		out.ContentionX = out.StaticSec / out.IdealSec
	}

	if s.Sim.Enabled {
		simSec, err := simulate(ctx, routeOf, demands, net.numLinks(), caps, s.Sim.Rounds)
		if err != nil {
			return err
		}
		out.SimSec = simSec
		out.SimRounds = s.Sim.Rounds
	}
	return nil
}

// simulate runs the flow-level max-min fair simulation: all demands
// start at once, each round runs to completion, rounds repeat
// back-to-back. Each flow starts from its route as routeOf returns it,
// into one reused buffer for DOR (StartFlow copies the route).
func simulate(ctx context.Context, routeOf routeFunc, demands []route.Demand, numLinks int, caps linkCaps, rounds int) (float64, error) {
	var sim *netsim.Sim
	if caps == nil {
		sim = netsim.New(numLinks, model.LinkBytesPerSec)
	} else {
		sim = netsim.NewWithCapacities(caps)
	}
	var buf []int
	total := 0.0
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for i, d := range demands {
			if i%simCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			var err error
			if buf, err = routeOf(i, buf[:0]); err != nil {
				return 0, err
			}
			if len(buf) == 0 {
				continue
			}
			sim.StartFlow(buf, d.Bytes, 0)
		}
		total += sim.RunUntilIdle()
	}
	return total, nil
}

// Table renders the outcome as a deterministic metric/value table.
func (o *Outcome) Table() tabulate.Table {
	t := tabulate.Table{
		Title:   "Scenario: " + o.Spec.Title(),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("topology", o.Topology)
	t.AddRow("routing", o.Spec.Routing)
	t.AddRow("vertices", o.Vertices)
	t.AddRow("edges", o.Edges)
	if o.Geometry != "" {
		t.AddRow("geometry", o.Geometry)
		t.AddRow("bisection BW (links)", o.BisectionBW)
	}
	t.AddRow("pattern", o.Spec.Workload.Pattern)
	t.AddRow("demands", o.Demands)
	t.AddRow("total GB", o.TotalBytes/1e9)
	t.AddRow("max link GB", o.MaxLinkBytes/1e9)
	if o.Bottleneck != "" {
		t.AddRow("bottleneck link", o.Bottleneck)
	}
	t.AddRow("active links", o.ActiveLinks)
	t.AddRow("mean link GB", o.MeanLinkBytes/1e9)
	t.AddRow("ideal (s)", o.IdealSec)
	t.AddRow("static bottleneck (s)", o.StaticSec)
	t.AddRow("contention factor", o.ContentionX)
	if o.Spec.Sim.Enabled {
		t.AddRow("simulated (s)", o.SimSec)
		t.AddRow("simulated rounds", o.SimRounds)
	}
	if f := o.Spec.Failures; f != nil {
		t.AddRow("failure model", f.Model)
		if o.FailedLinks > 0 {
			t.AddRow("failed links", o.FailedLinks)
		}
		if o.DegradedLinks > 0 {
			t.AddRow("degraded links", o.DegradedLinks)
			t.AddRow("capacity factor", o.CapacityFactor)
		}
		if o.FailedMidplanes > 0 {
			t.AddRow("failed midplanes", o.FailedMidplanes)
		}
		if h := o.Healthy; h != nil {
			t.AddRow("healthy static (s)", h.StaticSec)
			t.AddRow("degradation (x)", h.DegradationX)
			t.AddRow("contention delta (x)", h.ContentionDeltaX)
		}
	}
	return t
}
