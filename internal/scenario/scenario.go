// Package scenario is the declarative experiment model that opens the
// evaluation beyond the paper's 14 frozen artifacts: a Spec composes a
// topology (torus family or explicit graph family), a traffic workload
// (the internal/workload generators plus the adversarial hill climb),
// a routing discipline (deterministic dimension-ordered routing on
// tori, deterministic min-hop routing on explicit graphs) and — for
// machine-partition topologies — an allocation policy (the bgq
// geometry policies and the sched placement policies) into one
// runnable experiment.
//
// Specs are wire-friendly (plain JSON), validated and *normalized*:
// Normalize fills defaults, canonicalizes shape strings and zeroes
// every knob that cannot affect the result, so a normalized Spec's
// canonical JSON (Key) is a true result identity — two requests with
// equal Keys are guaranteed byte-identical outcomes, which is what
// lets the serving layer's coalescing cache treat user-defined
// scenarios exactly like registry experiments. Running a Spec is
// byte-deterministic: randomized workloads derive from the Spec's
// seed, and every loop iterates in index order.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"netpart/internal/bgq"
	"netpart/internal/faults"
	"netpart/internal/sched"
	"netpart/internal/torus"
	"netpart/internal/workload"
)

// Topology kinds.
const (
	// KindTorus is a D-dimensional torus given by Shape, routed with
	// deterministic dimension-ordered routing.
	KindTorus = "torus"
	// KindHypercube is the D-dimensional hypercube Q_D (Dim), i.e.
	// the torus [2]^D, routed with DOR.
	KindHypercube = "hypercube"
	// KindMesh is the 2D mesh without wrap-around (Shape "RxC"),
	// routed min-hop on the explicit graph.
	KindMesh = "mesh"
	// KindClique is the (optionally weighted) clique product — the
	// HyperX topology — given by Shape and Weights, routed min-hop.
	KindClique = "clique"
	// KindDragonfly is the Cray XC style Dragonfly (Groups groups of
	// GroupShape clique products, Aries link weights), routed min-hop.
	KindDragonfly = "dragonfly"
	// KindPartition is a Blue Gene/Q machine partition: Machine (a
	// catalog name or an explicit midplane grid "AxBxCxD"), Midplanes
	// and Policy resolve to a partition geometry whose node-level
	// torus is routed with DOR.
	KindPartition = "partition"
)

// Workload patterns.
const (
	PatternPairing     = "pairing"     // furthest-node bisection pairing (§4.1)
	PatternPermutation = "permutation" // seeded uniform random permutation
	PatternAllToAll    = "all-to-all"  // every ordered pair (quadratic)
	PatternNeighbor    = "neighbor"    // nearest-neighbour halo exchange
	PatternLongestDim  = "longest-dim" // half-shift along the longest dimension (torus only)
	PatternAdversarial = "adversarial" // near-worst-case hill climb (torus only)
)

// Allocation policies for KindPartition.
const (
	PolicyPredefined      = "predefined"       // the machine's predefined list (Mira)
	PolicyBestCase        = "best-case"        // maximal internal bisection (the paper's proposal)
	PolicyWorstCase       = "worst-case"       // minimal internal bisection (adversarial baseline)
	PolicyFirstFit        = "first-fit"        // sched first-fit placement on an empty machine
	PolicyBestBisection   = "best-bisection"   // sched best-bisection placement
	PolicyContentionAware = "contention-aware" // sched contention-aware placement (job declared contention-bound)
)

// Routing disciplines.
const (
	// RoutingDOR is deterministic dimension-ordered routing (torus
	// family only).
	RoutingDOR = "dor"
	// RoutingMinHop is deterministic min-hop (BFS) routing on the
	// explicit graph; available for every kind.
	RoutingMinHop = "minhop"
)

// Defaults filled in by Normalize.
const (
	// DefaultBytes is the per-flow volume when the spec leaves Bytes
	// zero: the paper's §4.1 round volume scale (0.1342 GB ~ 2^27).
	DefaultBytes = float64(1 << 27)
	// DefaultSeed seeds the randomized patterns.
	DefaultSeed = int64(1)
	// DefaultIters bounds the adversarial hill climb.
	DefaultIters = 256
	// DefaultRounds is the simulated round count when Sim is enabled.
	DefaultRounds = 1
)

// Size bounds. The torus family reuses the workload package bound;
// the graph family is tighter because min-hop routing runs one BFS
// per distinct source.
const (
	// MaxTorusVertices bounds DOR-routed scenarios.
	MaxTorusVertices = 1 << 20
	// MaxGraphVertices bounds min-hop-routed scenarios.
	MaxGraphVertices = 1 << 13
	// MaxSimVertices bounds flow-level simulated scenarios.
	MaxSimVertices = 1 << 13
	// MaxSimRounds bounds full-resolution simulated rounds.
	MaxSimRounds = 64
	// MaxIters bounds the adversarial hill climb.
	MaxIters = 1 << 20
)

// Cost classes, mirroring the registry's (the root package converts
// them to netpart.Cost; the string values are identical).
const (
	CostCheap    = "cheap"
	CostModerate = "moderate"
	CostHeavy    = "heavy"
)

// TopologySpec selects and parameterizes the network under test. Only
// the fields of the chosen Kind are meaningful; Normalize zeroes the
// rest so they cannot fragment cache identity.
type TopologySpec struct {
	Kind string `json:"kind"`
	// Shape is the torus / mesh / clique-product shape, "AxBxC".
	Shape string `json:"shape,omitempty"`
	// Dim is the hypercube dimension.
	Dim int `json:"dim,omitempty"`
	// Weights are the per-dimension clique edge weights (uniform 1
	// when empty).
	Weights []float64 `json:"weights,omitempty"`
	// Groups is the Dragonfly group count.
	Groups int `json:"groups,omitempty"`
	// GroupShape is the Dragonfly intra-group clique product, "AxB".
	GroupShape string `json:"group_shape,omitempty"`
	// Machine is the partition host: a catalog name ("mira",
	// "juqueen", "sequoia", "juqueen48", "juqueen54") or an explicit
	// midplane grid shape ("4x4x2x2") for hypothetical machines.
	Machine string `json:"machine,omitempty"`
	// Midplanes is the partition size request.
	Midplanes int `json:"midplanes,omitempty"`
	// Policy selects the partition geometry (default best-case).
	Policy string `json:"policy,omitempty"`
}

// WorkloadSpec selects and parameterizes the traffic pattern.
type WorkloadSpec struct {
	Pattern string `json:"pattern"`
	// Bytes is the per-flow volume (default DefaultBytes).
	Bytes float64 `json:"bytes,omitempty"`
	// Seed drives the randomized patterns (permutation, adversarial).
	Seed int64 `json:"seed,omitempty"`
	// Iters bounds the adversarial hill climb (default DefaultIters).
	Iters int `json:"iters,omitempty"`
}

// SimSpec asks for the flow-level max-min fair time of Rounds
// back-to-back rounds of the workload, next to the static bottleneck
// analysis. Every scenario workload has equal flow sizes and starts
// all its flows at once with no latency, so a round's max-min fair
// makespan is the static time (the netsim package comment proves it):
// the outcome's sim_sec is Rounds × static_sec, and no simulator runs.
type SimSpec struct {
	Enabled bool `json:"enabled,omitempty"`
	// Rounds repeats the pattern back-to-back (default 1).
	Rounds int `json:"rounds,omitempty"`
}

// Spec is one declarative scenario. The zero value is invalid;
// construct with explicit Topology and Workload and call Normalize.
type Spec struct {
	// Name is an optional human label, reported in titles. It is part
	// of cache identity (it appears in the rendered result).
	Name     string       `json:"name,omitempty"`
	Topology TopologySpec `json:"topology"`
	Workload WorkloadSpec `json:"workload"`
	// Routing is "dor", "minhop" or empty (auto: DOR for the torus
	// family, min-hop for the graph family).
	Routing string  `json:"routing,omitempty"`
	Sim     SimSpec `json:"sim,omitempty"`
	// Failures injects a static failure/degradation model: failed or
	// degraded links (any kind) or failed midplanes (partition kind
	// with a placement policy). Nil means healthy. When set, the
	// outcome also carries the healthy baseline of the same spec and
	// the robustness deltas against it.
	Failures *faults.Spec `json:"failures,omitempty"`
}

// torusFamily reports whether the kind resolves to a torus routed
// with DOR by default.
func torusFamily(kind string) bool {
	return kind == KindTorus || kind == KindHypercube || kind == KindPartition
}

func knownKind(kind string) bool {
	switch kind {
	case KindTorus, KindHypercube, KindMesh, KindClique, KindDragonfly, KindPartition:
		return true
	}
	return false
}

func knownPattern(p string) bool {
	switch p {
	case PatternPairing, PatternPermutation, PatternAllToAll, PatternNeighbor, PatternLongestDim, PatternAdversarial:
		return true
	}
	return false
}

func knownPolicy(p string) bool {
	switch p {
	case PolicyPredefined, PolicyBestCase, PolicyWorstCase, PolicyFirstFit, PolicyBestBisection, PolicyContentionAware:
		return true
	}
	return false
}

// patternRandomized reports whether the pattern consumes the seed.
func patternRandomized(p string) bool {
	return p == PatternPermutation || p == PatternAdversarial
}

// canonShape parses and re-renders a shape string ("4X4x 2" →
// "4x4x2"), so equivalent spellings share cache identity.
func canonShape(field, s string) (string, torus.Shape, error) {
	sh, err := torus.ParseShape(s)
	if err != nil {
		return "", nil, fmt.Errorf("scenario: %s: %w", field, err)
	}
	return sh.String(), sh, nil
}

// Normalize validates the spec and returns its canonical form: kinds,
// patterns and policies lower-cased, shapes re-rendered, defaults
// filled, and every field that cannot affect the result zeroed. The
// returned spec's Key is the scenario's cache identity.
func (s Spec) Normalize() (Spec, error) {
	n := Spec{Name: strings.TrimSpace(s.Name)}
	n.Topology.Kind = strings.ToLower(strings.TrimSpace(s.Topology.Kind))
	n.Workload.Pattern = strings.ToLower(strings.TrimSpace(s.Workload.Pattern))
	n.Routing = strings.ToLower(strings.TrimSpace(s.Routing))

	t := &n.Topology
	if !knownKind(t.Kind) {
		return Spec{}, fmt.Errorf("scenario: unknown topology kind %q (want torus, hypercube, mesh, clique, dragonfly or partition)", s.Topology.Kind)
	}
	if !knownPattern(n.Workload.Pattern) {
		return Spec{}, fmt.Errorf("scenario: unknown workload pattern %q (want pairing, permutation, all-to-all, neighbor, longest-dim or adversarial)", s.Workload.Pattern)
	}

	// Per-kind topology fields; everything else stays zero.
	var vertices int
	switch t.Kind {
	case KindTorus, KindMesh, KindClique:
		shape, sh, err := canonShape(t.Kind+" shape", s.Topology.Shape)
		if err != nil {
			return Spec{}, err
		}
		if t.Kind == KindMesh && len(sh) != 2 {
			return Spec{}, fmt.Errorf("scenario: mesh shape %q must be 2-dimensional (RxC)", s.Topology.Shape)
		}
		t.Shape = shape
		vertices = sh.Volume()
		if t.Kind == KindClique && len(s.Topology.Weights) > 0 {
			if len(s.Topology.Weights) != len(sh) {
				return Spec{}, fmt.Errorf("scenario: %d clique weights for rank-%d shape %s", len(s.Topology.Weights), len(sh), shape)
			}
			for i, w := range s.Topology.Weights {
				if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
					return Spec{}, fmt.Errorf("scenario: clique weight[%d] = %v is not positive and finite", i, w)
				}
			}
			t.Weights = append([]float64(nil), s.Topology.Weights...)
		}
	case KindHypercube:
		if s.Topology.Dim < 1 || s.Topology.Dim > 20 {
			return Spec{}, fmt.Errorf("scenario: hypercube dim %d out of range [1, 20]", s.Topology.Dim)
		}
		t.Dim = s.Topology.Dim
		vertices = 1 << uint(t.Dim)
	case KindDragonfly:
		if s.Topology.Groups < 2 {
			return Spec{}, fmt.Errorf("scenario: dragonfly needs >= 2 groups, have %d", s.Topology.Groups)
		}
		shape, sh, err := canonShape("dragonfly group_shape", s.Topology.GroupShape)
		if err != nil {
			return Spec{}, err
		}
		t.Groups = s.Topology.Groups
		t.GroupShape = shape
		vertices = t.Groups * sh.Volume()
		if gs := sh.Volume(); gs < t.Groups-1 {
			return Spec{}, fmt.Errorf("scenario: dragonfly group %s has %d global ports, cannot reach %d peer groups", shape, gs, t.Groups-1)
		}
	case KindPartition:
		if strings.TrimSpace(s.Topology.Machine) == "" {
			return Spec{}, fmt.Errorf("scenario: partition topology needs a machine (catalog name or midplane grid shape)")
		}
		machine, err := CanonicalMachine(s.Topology.Machine)
		if err != nil {
			return Spec{}, err
		}
		t.Machine = machine
		if s.Topology.Midplanes < 1 {
			return Spec{}, fmt.Errorf("scenario: partition needs midplanes >= 1, have %d", s.Topology.Midplanes)
		}
		t.Midplanes = s.Topology.Midplanes
		t.Policy = strings.ToLower(strings.TrimSpace(s.Topology.Policy))
		if t.Policy == "" {
			t.Policy = PolicyBestCase
		}
		if !knownPolicy(t.Policy) {
			return Spec{}, fmt.Errorf("scenario: unknown policy %q (want predefined, best-case, worst-case, first-fit, best-bisection or contention-aware)", s.Topology.Policy)
		}
		// Placement compiles a plan over the whole machine, so a custom
		// grid is held to the bound traces and sessions share (catalog
		// machines have at most 96 midplanes).
		if _, placed := sched.PolicyByName(t.Policy); placed && !catalogMachine(machine) && !sched.WithinMachineBound(mustShape(machine)) {
			return Spec{}, fmt.Errorf("scenario: machine %s exceeds the %d-midplane bound of the %s policy", machine, sched.MaxMachineMidplanes, t.Policy)
		}
		vertices = t.Midplanes * bgq.MidplaneNodes
	}
	if s.Topology.Policy != "" && t.Kind != KindPartition {
		return Spec{}, fmt.Errorf("scenario: policy %q only applies to partition topologies", s.Topology.Policy)
	}

	// Routing: default by family, validate compatibility.
	switch n.Routing {
	case "":
		if torusFamily(t.Kind) {
			n.Routing = RoutingDOR
		} else {
			n.Routing = RoutingMinHop
		}
	case RoutingDOR:
		if !torusFamily(t.Kind) {
			return Spec{}, fmt.Errorf("scenario: routing %q requires a torus-family topology (torus, hypercube, partition), not %s", RoutingDOR, t.Kind)
		}
	case RoutingMinHop:
	default:
		return Spec{}, fmt.Errorf("scenario: unknown routing %q (want dor or minhop)", s.Routing)
	}

	// Size bounds per routing backend.
	maxV := MaxTorusVertices
	if n.Routing == RoutingMinHop {
		maxV = MaxGraphVertices
	}
	if vertices > maxV {
		return Spec{}, fmt.Errorf("scenario: %s topology has %d vertices, exceeding the %d-vertex bound for %s routing", t.Kind, vertices, maxV, n.Routing)
	}

	// Workload.
	w := &n.Workload
	w.Bytes = s.Workload.Bytes
	if w.Bytes == 0 {
		w.Bytes = DefaultBytes
	}
	if w.Bytes <= 0 || math.IsInf(w.Bytes, 0) || math.IsNaN(w.Bytes) {
		return Spec{}, fmt.Errorf("scenario: workload bytes %v is not positive and finite", s.Workload.Bytes)
	}
	if patternRandomized(w.Pattern) {
		w.Seed = s.Workload.Seed
		if w.Seed == 0 {
			w.Seed = DefaultSeed
		}
	}
	switch w.Pattern {
	case PatternAdversarial:
		if !torusFamily(t.Kind) || n.Routing != RoutingDOR {
			return Spec{}, fmt.Errorf("scenario: pattern %q requires a DOR-routed torus-family topology", PatternAdversarial)
		}
		w.Iters = s.Workload.Iters
		if w.Iters == 0 {
			w.Iters = DefaultIters
		}
		if w.Iters < 0 || w.Iters > MaxIters {
			return Spec{}, fmt.Errorf("scenario: adversarial iters %d out of range [0, %d]", s.Workload.Iters, MaxIters)
		}
	case PatternLongestDim:
		if !torusFamily(t.Kind) || n.Routing != RoutingDOR {
			return Spec{}, fmt.Errorf("scenario: pattern %q requires a DOR-routed torus-family topology", PatternLongestDim)
		}
	case PatternAllToAll:
		if vertices > workload.MaxAllToAllNodes {
			return Spec{}, fmt.Errorf("scenario: all-to-all on %d vertices exceeds the %d-vertex bound", vertices, workload.MaxAllToAllNodes)
		}
	}
	if s.Workload.Iters != 0 && w.Pattern != PatternAdversarial {
		return Spec{}, fmt.Errorf("scenario: iters only applies to the adversarial pattern")
	}

	// Simulation.
	if s.Sim.Enabled {
		n.Sim.Enabled = true
		n.Sim.Rounds = s.Sim.Rounds
		if n.Sim.Rounds == 0 {
			n.Sim.Rounds = DefaultRounds
		}
		if n.Sim.Rounds < 1 || n.Sim.Rounds > MaxSimRounds {
			return Spec{}, fmt.Errorf("scenario: sim rounds %d out of range [1, %d]", s.Sim.Rounds, MaxSimRounds)
		}
		if vertices > MaxSimVertices {
			return Spec{}, fmt.Errorf("scenario: flow-level simulation on %d vertices exceeds the %d-vertex bound", vertices, MaxSimVertices)
		}
	} else if s.Sim.Rounds != 0 {
		return Spec{}, fmt.Errorf("scenario: sim rounds set but sim not enabled")
	}

	// Failures: normalize the embedded spec and validate it against
	// the topology (model/kind compatibility, explicit ID bounds).
	if s.Failures != nil {
		f, err := s.Failures.Normalize()
		if err != nil {
			return Spec{}, err
		}
		if len(f.Windows) > 0 {
			return Spec{}, fmt.Errorf("scenario: failure windows have no meaning in a static scenario; use a trace simulation for time-varying outages")
		}
		if f.MidplaneScoped() {
			if t.Kind != KindPartition {
				return Spec{}, fmt.Errorf("scenario: failure model %s fails midplanes, which only partition topologies have", f.Model)
			}
			if _, placed := sched.PolicyByName(t.Policy); !placed {
				return Spec{}, fmt.Errorf("scenario: failure model %s needs a placement policy that can avoid failed midplanes (first-fit, best-bisection or contention-aware), not %s", f.Model, t.Policy)
			}
			if f.Factor != 0 {
				return Spec{}, fmt.Errorf("scenario: failed midplanes are removed whole; capacity factors only apply to link models")
			}
			if f.Model == faults.ModelMidplanes {
				m, err := resolveMachine(t.Machine)
				if err != nil {
					return Spec{}, err
				}
				if top := f.Midplanes[len(f.Midplanes)-1]; top >= m.Midplanes() {
					return Spec{}, fmt.Errorf("scenario: failed midplane %d out of range (%s has %d midplanes)", top, t.Machine, m.Midplanes())
				}
			}
		} else if f.Model == faults.ModelLinks {
			if t.Kind == KindPartition {
				return Spec{}, fmt.Errorf("scenario: explicit link IDs on a partition depend on the policy-chosen geometry; use random_links or correlated_region")
			}
			edges, err := countEdges(*t)
			if err != nil {
				return Spec{}, err
			}
			if top := f.Links[len(f.Links)-1]; top >= edges {
				return Spec{}, fmt.Errorf("scenario: failed link %d out of range (topology has %d links)", top, edges)
			}
		}
		n.Failures = &f
	}

	return n, nil
}

// Key returns the canonical JSON encoding of the spec — the
// scenario's cache identity. Call on a normalized Spec; Key on a
// non-normalized spec distinguishes specs that normalize identically.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec contains only marshalable fields; unreachable.
		panic(fmt.Sprintf("scenario: marshal spec: %v", err))
	}
	return string(b)
}

// Hash returns a short content hash of Key, used in experiment IDs.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:6])
}

// ID returns the synthesized experiment ID of the scenario
// ("scenario:abcdef012345"). Dynamic IDs always carry a ':', which no
// registry ID does, so the two namespaces cannot collide.
func (s Spec) ID() string { return "scenario:" + s.Hash() }

// EstVertices estimates the topology's vertex count without resolving
// it (cheap enough for admission decisions). Returns 0 for specs that
// do not validate.
func (s Spec) EstVertices() int {
	t := s.Topology
	switch strings.ToLower(strings.TrimSpace(t.Kind)) {
	case KindTorus, KindMesh, KindClique:
		if sh, err := torus.ParseShape(t.Shape); err == nil {
			return sh.Volume()
		}
	case KindHypercube:
		if t.Dim >= 0 && t.Dim <= 30 {
			return 1 << uint(t.Dim)
		}
	case KindDragonfly:
		if sh, err := torus.ParseShape(t.GroupShape); err == nil {
			return t.Groups * sh.Volume()
		}
	case KindPartition:
		return t.Midplanes * bgq.MidplaneNodes
	}
	return 0
}

// Cost classifies the scenario's expected runtime for admission
// control, mirroring the registry's cheap/moderate/heavy split:
// flow-level simulations are moderate (small) or heavy (large,
// multi-round, or with the demand volume that makes a static analysis
// heavy); static analyses are cheap unless the demand volume makes
// them moderate or heavy. A partition is at least moderate: it
// selects a geometry on the machine (a geometry search or a placement
// scan) before routing a node-level torus of at least one midplane.
func (s Spec) Cost() string {
	n := s.EstVertices()
	work := n
	if strings.ToLower(strings.TrimSpace(s.Workload.Pattern)) == PatternAllToAll {
		work = n * n
	}
	if s.Sim.Enabled {
		rounds := s.Sim.Rounds
		if rounds == 0 {
			rounds = DefaultRounds
		}
		if n > 2048 || rounds > 4 || work > 1<<18 {
			return CostHeavy
		}
		return CostModerate
	}
	if work > 1<<18 {
		return CostHeavy
	}
	if work > 1<<14 || strings.EqualFold(s.Topology.Kind, KindPartition) {
		return CostModerate
	}
	return CostCheap
}

// Title returns the human label for reports: the explicit Name, or a
// generated "kind spec · pattern" summary.
func (s Spec) Title() string {
	if s.Name != "" {
		return s.Name
	}
	t := s.Topology
	var topo string
	switch t.Kind {
	case KindTorus:
		topo = "torus " + t.Shape
	case KindHypercube:
		topo = fmt.Sprintf("hypercube Q%d", t.Dim)
	case KindMesh:
		topo = "mesh " + t.Shape
	case KindClique:
		topo = "clique product " + t.Shape
	case KindDragonfly:
		topo = fmt.Sprintf("dragonfly %dx(%s)", t.Groups, t.GroupShape)
	case KindPartition:
		topo = fmt.Sprintf("%s %d midplanes (%s)", t.Machine, t.Midplanes, t.Policy)
	default:
		topo = t.Kind
	}
	title := topo + " · " + s.Workload.Pattern
	if s.Failures != nil {
		title += " · " + s.Failures.Model
	}
	if s.Sim.Enabled {
		title += " · simulated"
	}
	return title
}
