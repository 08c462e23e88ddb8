package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"netpart/internal/model"
	"netpart/internal/route"
	"netpart/internal/tabulate"
	"netpart/internal/torus"
	"netpart/internal/workload"
)

// cancelStride bounds the demands an analysis pass handles between
// context checks: the general pass routes them, the one-source pass
// adds their bytes to total_bytes.
const cancelStride = 256

// Outcome is the result of running one scenario: the resolved
// topology, the generated workload, the static bottleneck analysis
// (the paper's §4.1 contention model) and, when Spec.Sim enables it,
// the flow-level max-min fair time, which for every scenario workload
// is the static time per round (see SimSpec). All fields are
// deterministic functions of the normalized Spec.
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

	// Flow-level max-min fair time over SimRounds rounds (Spec.Sim):
	// SimRounds × StaticSec.
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

// Run executes the scenario: normalize, resolve the topology, then
// build the workload and run the static analysis, which also gives the
// flow-level time when Spec.Sim asks for it. A translation-invariant
// pattern on a healthy DOR torus takes the one-source pass; every other
// spec takes the general pass (oneSourceApplies draws the line). The
// context is checked between phases and every cancelStride demands.
func Run(ctx context.Context, spec Spec) (*Outcome, error) {
	return runWith(ctx, spec, analyzeCheapest)
}

// analyzer fills an outcome's workload figures, its static analysis
// and, when the spec enables it, its flow-level time from the resolved
// network. Run passes analyzeCheapest; the package's tests pass the
// general pass, and the reference analysis the general pass replaced,
// which still simulates, and compare outcomes.
type analyzer func(ctx context.Context, s Spec, net *network, out *Outcome) error

// analyzeCheapest runs the one-source pass where it applies and the
// general pass everywhere else.
func analyzeCheapest(ctx context.Context, s Spec, net *network, out *Outcome) error {
	if oneSourceApplies(s, net) {
		return analyzeOneSource(ctx, s, net, out)
	}
	return analyze(ctx, s, net, out)
}

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

	if err := an(ctx, norm, net, out); err != nil {
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

// analyze is the general pass of the §4.1 static contention model,
// for every spec: it builds the demands, then makes one pass over them.
// Each is routed into one reused buffer, and its bytes are added to the
// loads of the links on its route, in demand-then-hop order, while its
// alone-time on those links is taken. No route is kept, so a pass holds
// only the demands and one load per directed link (plus one capacity
// per link when degraded links scale some of them, or edge weights set
// them). With Spec.Sim, the flow-level time is the static time per
// round: every scenario workload has equal flow sizes and starts all
// its flows at once with no latency, and for such flows the max-min
// fair makespan is the static time (the netsim package comment proves
// it).
func analyze(ctx context.Context, s Spec, net *network, out *Outcome) error {
	demands, err := s.demands(net)
	if err != nil {
		return err
	}
	out.Demands = len(demands)
	out.TotalBytes = workload.TotalBytes(demands)
	if err := ctx.Err(); err != nil {
		return err
	}
	routeOf := net.routing(demands)
	caps := net.capacities()
	load := make([]float64, net.numLinks())
	var buf []int
	for i, d := range demands {
		if i%cancelStride == 0 {
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
		out.SimSec = float64(s.Sim.Rounds) * out.StaticSec
		out.SimRounds = s.Sim.Rounds
	}
	return nil
}

// oneSourceApplies reports whether the one-source pass gives the
// spec's outcome: a translation-invariant pattern (pairing, neighbor,
// longest-dim or all-to-all) on a DOR-routed torus, hypercube or
// partition on which no directed link is removed or degraded.
// Midplane-scoped failures qualify, since they only steer placement;
// so does a link model that changes no link (factor 1, or no link
// selected).
func oneSourceApplies(s Spec, net *network) bool {
	if net.router == nil || net.dorFailed != nil || net.dorCap != nil {
		return false
	}
	switch s.Workload.Pattern {
	case PatternPairing, PatternNeighbor, PatternLongestDim, PatternAllToAll:
		return true
	}
	return false
}

// sourceDestinations returns node 0's destinations under a
// translation-invariant pattern, the ones its generator gives node 0.
// Every node v sends to v plus each of them, since each generator
// sends from v to v plus the same offsets.
func (s Spec) sourceDestinations(net *network) []int {
	switch s.Workload.Pattern {
	case PatternPairing:
		if t := net.router.FurthestNode(0); t != 0 {
			return []int{t}
		}
	case PatternNeighbor:
		return net.tor.Neighbors(0, nil)
	case PatternLongestDim:
		dims := net.tor.Dims()
		d := workload.LongestDim(dims)
		if dims[d] >= 2 {
			c := make(torus.Coord, len(dims))
			c[d] = dims[d] / 2
			return []int{net.tor.Index(c)}
		}
	case PatternAllToAll:
		dsts := make([]int, net.vertices-1)
		for i := range dsts {
			dsts[i] = i + 1
		}
		return dsts
	}
	return nil
}

// analyzeOneSource is the one-source pass: the general pass's outcome,
// bit for bit, for a spec oneSourceApplies accepts, from node 0's
// demands alone. The route package comment proves that every link of
// a class (dimension, direction) then carries the same load: bytes B
// added once for each class hop on node 0's routes. So the pass routes
// node 0's demands once (route.ClassLoads) and derives every field
// from the class loads, keeping the general pass's float order:
//   - total_bytes is B added once per demand, as workload.TotalBytes
//     adds it;
//   - mean_link_bytes sums the class loads node by node, in link-ID
//     order, as the general pass's scan of the load vector does;
//   - the bottleneck is node 0's link in the first maximal class, in
//     (dimension, direction) order, the first maximal link of that scan;
//   - ideal_sec is B over the link capacity once any demand exists, as
//     every demand's route has a hop.
//
// It builds no demand list and no load vector.
func analyzeOneSource(ctx context.Context, s Spec, net *network, out *Outcome) error {
	b := s.Workload.Bytes
	dsts := s.sourceDestinations(net)
	out.Demands = net.vertices * len(dsts)
	total := 0.0
	for done := 0; done < out.Demands; done += cancelStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := min(cancelStride, out.Demands-done); i > 0; i-- {
			total += b
		}
	}
	out.TotalBytes = total

	loads := net.router.ClassLoads(dsts, b)
	active := make([]float64, 0, len(loads))
	maxSec, maxClass := 0.0, -1
	for c, l := range loads {
		if l <= 0 {
			continue
		}
		active = append(active, l)
		if sec := l / model.LinkBytesPerSec; sec > maxSec {
			maxSec, maxClass = sec, c
		}
	}
	out.ActiveLinks = net.vertices * len(active)
	sum := 0.0
	for v := 0; v < net.vertices; v++ {
		for _, l := range active {
			sum += l
		}
	}
	if out.ActiveLinks > 0 {
		out.MeanLinkBytes = sum / float64(out.ActiveLinks)
	}
	out.StaticSec = maxSec
	if maxClass >= 0 {
		// Node 0's link of class c has ID c.
		out.Bottleneck = net.linkName(maxClass)
		out.MaxLinkBytes = loads[maxClass]
	}
	if out.Demands > 0 {
		out.IdealSec = b / model.LinkBytesPerSec
	}
	if out.IdealSec > 0 {
		out.ContentionX = out.StaticSec / out.IdealSec
	}

	if s.Sim.Enabled {
		out.SimSec = float64(s.Sim.Rounds) * out.StaticSec
		out.SimRounds = s.Sim.Rounds
	}
	return nil
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
