package scenario

import (
	"fmt"
	"strings"

	"netpart/internal/bgq"
	"netpart/internal/experiments"
	"netpart/internal/faults"
	"netpart/internal/graph"
	"netpart/internal/model"
	"netpart/internal/route"
	"netpart/internal/sched"
	"netpart/internal/topo"
	"netpart/internal/torus"
)

// network is a resolved topology: exactly one routing backend is set
// (router for DOR on a torus, gnet for min-hop on an explicit graph).
type network struct {
	label    string
	vertices int
	edges    int // undirected edges

	router *route.Router // DOR backend
	tor    *torus.Torus

	gnet *graphNet // min-hop backend

	// partition metadata (KindPartition only)
	partition *bgq.Partition

	// Resolved failure state. faultLinks are the affected undirected
	// links; faultMidplanes the blocked machine cells; faultFactor the
	// capacity multiplier (0 = removed). The DOR backend additionally
	// materializes per-directed-link views (the graph backend applies
	// failures inside graphNet's BFS and capacity vectors).
	faultLinks     []int
	faultMidplanes []int
	faultFactor    float64
	dorFailed      []bool    // per directed link: removed from routing
	dorCap         []float64 // per directed link: capacity multiplier
}

// catalogMachine reports whether name is a built-in machine.
func catalogMachine(name string) bool {
	switch name {
	case "mira", "juqueen", "sequoia", "juqueen48", "juqueen54":
		return true
	}
	return false
}

// CanonicalMachine canonicalizes a machine reference — a catalog name
// (lower-cased) or an explicit midplane grid shape (re-rendered, so
// "4X4x 2x2" and "4x4x2x2" share cache identity). It is the seam
// sibling subsystems (the trace simulator) reuse so every layer
// resolves machines the same way.
func CanonicalMachine(name string) (string, error) {
	m := strings.ToLower(strings.TrimSpace(name))
	if catalogMachine(m) {
		return m, nil
	}
	sh, err := torus.ParseShape(m)
	if err != nil {
		return "", fmt.Errorf("scenario: machine %q is neither a catalog name (mira, juqueen, sequoia, juqueen48, juqueen54) nor a midplane grid shape: %w", name, err)
	}
	return sh.String(), nil
}

// ResolveMachine resolves a canonical machine reference to its model:
// the catalog machine, or a hypothetical one built from an explicit
// midplane grid shape.
func ResolveMachine(name string) (*bgq.Machine, error) {
	if catalogMachine(name) {
		return experiments.DefaultMachines(name)
	}
	sh, err := torus.ParseShape(name)
	if err != nil {
		return nil, fmt.Errorf("scenario: machine %q: %w", name, err)
	}
	m, err := bgq.NewMachine("custom "+sh.String(), sh)
	if err != nil {
		return nil, fmt.Errorf("scenario: machine %q: %w", name, err)
	}
	return m, nil
}

// PartitionError reports a partition request the machine cannot
// satisfy: more midplanes than it has, no predefined partition of
// that size (or no predefined list at all), or no cuboid that fits.
// Like a disconnecting failure model it is a property of the spec,
// not a fault of the run.
type PartitionError struct{ err error }

func (e *PartitionError) Error() string { return e.err.Error() }

func (e *PartitionError) Unwrap() error { return e.err }

// resolvePartition applies the spec's allocation policy to the
// machine: the bgq geometry policies answer directly; the sched
// placement policies place a single contention-bound job on the empty
// machine through sched.Grid.Place, the memoized plan scan the
// scheduler uses. blocked lists failed midplane cells the placement
// must avoid (sched policies only; Normalize rejects midplane failures
// for the bgq geometry policies, which pick a geometry without a
// location).
func resolvePartition(t TopologySpec, blocked []int) (*bgq.Machine, bgq.Partition, error) {
	m, err := ResolveMachine(t.Machine)
	if err != nil {
		return nil, bgq.Partition{}, err
	}
	if t.Midplanes > m.Midplanes() {
		return nil, bgq.Partition{}, &PartitionError{fmt.Errorf("scenario: %d midplanes exceed %s's %d", t.Midplanes, m.Name, m.Midplanes())}
	}
	if pol, ok := sched.PolicyByName(t.Policy); ok {
		grid := sched.NewGrid(m)
		if len(blocked) > 0 {
			if err := grid.BlockCells(blocked); err != nil {
				return nil, bgq.Partition{}, fmt.Errorf("scenario: %w", err)
			}
		}
		// The single job is declared contention-bound: that is the
		// regime the scenario measures, and it is what distinguishes
		// contention-aware from first-fit.
		job := sched.Job{Midplanes: t.Midplanes, BaseDurationSec: 1, ContentionBound: true}
		pl, ok := grid.Place(job, pol)
		if !ok {
			if len(blocked) > 0 {
				return nil, bgq.Partition{}, &PartitionError{fmt.Errorf("scenario: no %d-midplane cuboid fits %s with %d failed midplanes", t.Midplanes, m.Name, len(blocked))}
			}
			return nil, bgq.Partition{}, &PartitionError{fmt.Errorf("scenario: no %d-midplane cuboid fits %s", t.Midplanes, m.Name)}
		}
		return m, pl.Partition(), nil
	}
	var pol bgq.Policy
	switch t.Policy {
	case PolicyPredefined:
		pol = bgq.PredefinedPolicy{}
	case PolicyBestCase:
		pol = bgq.BestCasePolicy{}
	case PolicyWorstCase:
		pol = bgq.WorstCasePolicy{}
	default:
		return nil, bgq.Partition{}, fmt.Errorf("scenario: unknown policy %q", t.Policy)
	}
	p, err := pol.Select(m, t.Midplanes)
	if err != nil {
		return nil, bgq.Partition{}, &PartitionError{fmt.Errorf("scenario: policy %s: %w", t.Policy, err)}
	}
	return m, p, nil
}

// buildGraph constructs the explicit graph for the graph-family kinds
// (and, for min-hop routing, the torus family too).
func buildGraph(t TopologySpec) (*graph.Graph, string, error) {
	switch t.Kind {
	case KindMesh:
		sh, err := torus.ParseShape(t.Shape)
		if err != nil {
			return nil, "", err
		}
		g, err := topo.Mesh2D(sh[0], sh[1])
		return g, "mesh " + sh.String(), err
	case KindClique:
		sh, err := torus.ParseShape(t.Shape)
		if err != nil {
			return nil, "", err
		}
		var g *graph.Graph
		if len(t.Weights) > 0 {
			g, err = topo.WeightedCliqueProduct(sh, t.Weights)
		} else {
			g, err = topo.CliqueProduct(sh)
		}
		return g, "clique product " + sh.String(), err
	case KindDragonfly:
		sh, err := torus.ParseShape(t.GroupShape)
		if err != nil {
			return nil, "", err
		}
		g, err := topo.Dragonfly(topo.AriesConfig(t.Groups, sh))
		return g, fmt.Sprintf("dragonfly %d groups of %s", t.Groups, sh), err
	case KindHypercube:
		g, err := topo.Hypercube(t.Dim)
		return g, fmt.Sprintf("hypercube Q%d", t.Dim), err
	case KindTorus:
		tor, err := torus.New(mustShape(t.Shape)...)
		if err != nil {
			return nil, "", err
		}
		return topo.FromTorus(tor), "torus " + t.Shape, nil
	default:
		return nil, "", fmt.Errorf("scenario: kind %q has no graph form", t.Kind)
	}
}

// mustShape parses a shape that Normalize already validated.
func mustShape(s string) torus.Shape {
	sh, err := torus.ParseShape(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: shape %q survived normalization: %v", s, err))
	}
	return sh
}

// resolve builds the routing backend for a normalized spec and
// applies its failure model: failed midplanes constrain the candidate
// enumeration before the partition is chosen; failed/degraded links
// are resolved against the backend's deterministic link universe.
func (s Spec) resolve() (*network, error) {
	t := s.Topology

	// Midplane-scoped failures block cells before placement.
	var blockedCells []int
	if f := s.Failures; f != nil && f.MidplaneScoped() {
		m, err := ResolveMachine(t.Machine)
		if err != nil {
			return nil, err
		}
		blockedCells, err = f.ResolveMidplanes(m.Grid)
		if err != nil {
			return nil, err
		}
	}

	var net *network
	if s.Routing == RoutingDOR {
		var tor *torus.Torus
		var err error
		var label string
		var part *bgq.Partition
		switch t.Kind {
		case KindTorus:
			tor, err = torus.New(mustShape(t.Shape)...)
			label = "torus " + t.Shape
		case KindHypercube:
			dims := make([]int, t.Dim)
			for i := range dims {
				dims[i] = 2
			}
			tor, err = torus.New(dims...)
			label = fmt.Sprintf("hypercube Q%d", t.Dim)
		case KindPartition:
			var p bgq.Partition
			_, p, err = resolvePartition(t, blockedCells)
			if err == nil {
				part = &p
				tor, err = torus.New(p.NodeShape()...)
				label = fmt.Sprintf("partition %s of %s", p, t.Machine)
			}
		default:
			err = fmt.Errorf("scenario: routing dor on non-torus kind %q", t.Kind)
		}
		if err != nil {
			return nil, err
		}
		net = &network{
			label:     label,
			vertices:  tor.NumVertices(),
			edges:     tor.NumEdges(),
			router:    route.NewRouter(tor),
			tor:       tor,
			partition: part,
		}
	} else {
		var g *graph.Graph
		var label string
		var part *bgq.Partition
		if t.Kind == KindPartition {
			// Resolve the policy once; the explicit graph is the node-level
			// torus of the selected partition.
			_, p, err := resolvePartition(t, blockedCells)
			if err != nil {
				return nil, err
			}
			tor, err := torus.New(p.NodeShape()...)
			if err != nil {
				return nil, err
			}
			g, label, part = topo.FromTorus(tor), fmt.Sprintf("partition %s of %s", p, t.Machine), &p
		} else {
			var err error
			g, label, err = buildGraph(t)
			if err != nil {
				return nil, err
			}
		}
		gn := newGraphNet(g)
		net = &network{
			label:     label,
			vertices:  g.N(),
			edges:     gn.numEdges,
			gnet:      gn,
			partition: part,
		}
	}

	if f := s.Failures; f != nil {
		net.faultFactor = f.Factor
		net.faultMidplanes = blockedCells
		if f.LinkScoped() {
			if err := net.applyLinkFaults(*f); err != nil {
				return nil, err
			}
		}
	}
	return net, nil
}

// applyLinkFaults resolves a link-scoped failure spec against the
// backend's link universe and materializes its effect: factor 0
// removes the affected links from routing; a factor in (0,1) scales
// their capacity.
func (n *network) applyLinkFaults(f faults.Spec) error {
	if n.gnet != nil {
		affected, err := f.ResolveLinks(faults.Universe{
			NumVertices: n.gnet.n,
			EndA:        n.gnet.endA,
			EndB:        n.gnet.endB,
		})
		if err != nil {
			return err
		}
		n.faultLinks = affected
		n.gnet.applyFaults(affected, f.Factor)
		return nil
	}

	u, wireDim := torusUniverse(n.tor)
	affected, err := f.ResolveLinks(u)
	if err != nil {
		return err
	}
	n.faultLinks = affected
	if len(affected) == 0 || f.Factor == 1 {
		return nil
	}
	r := n.router
	dims := n.tor.Dims()
	mark := func(l int, apply func(int)) {
		v, w, d := int(u.EndA[l]), int(u.EndB[l]), wireDim[l]
		apply(r.LinkID(v, d, route.Plus))
		if dims[d] == 2 {
			// Length-2 rings route both directions through Plus links.
			apply(r.LinkID(w, d, route.Plus))
		} else {
			apply(r.LinkID(w, d, route.Minus))
		}
	}
	if f.Factor == 0 {
		n.dorFailed = make([]bool, r.NumLinks())
		for _, l := range affected {
			mark(l, func(id int) { n.dorFailed[id] = true })
		}
	} else {
		n.dorCap = make([]float64, r.NumLinks())
		for i := range n.dorCap {
			n.dorCap[i] = 1
		}
		for _, l := range affected {
			mark(l, func(id int) { n.dorCap[id] = f.Factor })
		}
	}
	return nil
}

// routeFunc appends demand i's directed links, in travel order, to
// buf and returns the result.
type routeFunc func(i int, buf []int) ([]int, error)

// routing returns the per-demand routing of the resolved network. DOR
// walks demand i's path and fails if a removed link is on it (DOR
// paths are fixed). Min-hop walks the path up the BFS tree of the
// demand's source, which it builds only when the source changes; the
// generators emit demands grouped by source, so each source's tree is
// built once. An unreachable destination fails with a
// DisconnectedError.
func (n *network) routing(demands []route.Demand) routeFunc {
	if r := n.router; r != nil {
		return func(i int, buf []int) ([]int, error) {
			d := demands[i]
			buf = r.Route(d.Src, d.Dst, buf)
			if n.dorFailed != nil {
				for _, l := range buf {
					if n.dorFailed[l] {
						return nil, &route.DisconnectedError{Src: d.Src, Dst: d.Dst, Routing: RoutingDOR}
					}
				}
			}
			return buf, nil
		}
	}
	gn := n.gnet
	return func(i int, buf []int) ([]int, error) {
		d := demands[i]
		gn.tree(int32(d.Src))
		return gn.routeTo(int32(d.Dst), buf)
	}
}

// numLinks returns the size of the backend's directed-link ID space.
func (n *network) numLinks() int {
	if n.router != nil {
		return n.router.NumLinks()
	}
	return n.gnet.numLinks()
}

// linkName renders a directed link for diagnostics.
func (n *network) linkName(l int) string {
	if n.router != nil {
		return n.router.LinkString(l)
	}
	return n.gnet.linkString(l)
}

// linkCaps holds per-directed-link capacities in bytes/sec. Nil means
// every link runs at model.LinkBytesPerSec.
type linkCaps []float64

// at returns link l's capacity.
func (c linkCaps) at(l int) float64 {
	if c == nil {
		return model.LinkBytesPerSec
	}
	return c[l]
}

// capacities returns the backend's link capacities: nil for a torus
// unless degraded links scale some of them, edge-weighted ones for the
// min-hop graphs.
func (n *network) capacities() linkCaps {
	if n.router == nil {
		return n.gnet.capacities(model.LinkBytesPerSec)
	}
	if n.dorCap == nil {
		return nil
	}
	caps := make(linkCaps, len(n.dorCap))
	for i, f := range n.dorCap {
		caps[i] = model.LinkBytesPerSec * f
	}
	return caps
}

// torusUniverse enumerates the undirected edges of a torus as the
// fault link universe, in deterministic order: vertices ascending,
// dimensions ascending, one entry per physical wire (for length-2
// rings only the coordinate-0 endpoint emits the wire). The parallel
// wireDim slice records each wire's dimension for directed-link
// translation.
func torusUniverse(tor *torus.Torus) (faults.Universe, []int) {
	dims := tor.Dims()
	n := tor.NumVertices()
	u := faults.Universe{NumVertices: n}
	wireDim := make([]int, 0, tor.NumEdges())
	coord := make(torus.Coord, len(dims))
	next := make(torus.Coord, len(dims))
	for v := 0; v < n; v++ {
		coord = tor.CoordOf(v, coord)
		for d, a := range dims {
			if a <= 1 || (a == 2 && coord[d] == 1) {
				continue
			}
			copy(next, coord)
			next[d] = (coord[d] + 1) % a
			u.EndA = append(u.EndA, int32(v))
			u.EndB = append(u.EndB, int32(tor.Index(next)))
			wireDim = append(wireDim, d)
		}
	}
	return u, wireDim
}

// countEdges returns the undirected edge count of a normalized
// topology without building its routing backend (torus family) or by
// building the cheap explicit graph (graph family). It backs the
// explicit-link-ID bound check in Normalize.
func countEdges(t TopologySpec) (int, error) {
	switch t.Kind {
	case KindTorus:
		tor, err := torus.New(mustShape(t.Shape)...)
		if err != nil {
			return 0, err
		}
		return tor.NumEdges(), nil
	case KindHypercube:
		dims := make([]int, t.Dim)
		for i := range dims {
			dims[i] = 2
		}
		tor, err := torus.New(dims...)
		if err != nil {
			return 0, err
		}
		return tor.NumEdges(), nil
	default:
		g, _, err := buildGraph(t)
		if err != nil {
			return 0, err
		}
		return g.NumEdges(), nil
	}
}
