// Package sweep is the parameter-grid engine. A grid takes a base
// spec and a set of axes (cartesian by default, zipped on request),
// expands them into a bounded list of validated, normalized points,
// and executes the points sharded onto the experiment worker-pool
// driver with per-point progress, partial-failure isolation (a failing
// point records its error and the grid continues) and incremental
// streaming of completed points.
//
// The engine is generic over the point spec. Scenario sweeps (Grid,
// over package scenario) and the trace simulator's grids (package
// tracesim) are two Families of it: a Family value carries only what
// differs between them — error prefix, ID namespace, title label,
// point bounds and shard cap — and the expander, the content hash, the cost rule,
// the sharded run loop and the table-row prefix are shared.
//
// Expansion, execution and rendering are byte-deterministic: points
// are ordered row-major over the axes (last axis fastest), results
// land in index-addressed slots regardless of completion order, and
// a grid's identity (ID) hashes the name, the normalized point specs
// and the rendered axis assignments — everything that reaches the
// output bytes. Two grids with the same identity are guaranteed
// byte-identical results, so the serving layer coalesces them onto
// one execution; grids that differ only in declaration mechanics
// that cannot change the point sequence (e.g. zipped axes vs the
// equivalent cartesian diagonal) share an identity.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"netpart/internal/scenario"
)

// Point-count bounds.
const (
	// DefaultMaxPoints caps expansion when the grid does not set
	// MaxPoints.
	DefaultMaxPoints = 1024
	// HardMaxPoints is the ceiling no grid may raise MaxPoints above.
	HardMaxPoints = 65536
)

// Axis is one swept parameter: a dot-separated path into the point
// spec's JSON form ("topology.shape", "workload.pattern",
// "topology.policy", "synthetic.rate_hz", ...) and the values it takes.
// Axes with the same non-empty Zip tag advance together (they must
// have equal lengths) instead of multiplying the grid.
type Axis struct {
	Path   string            `json:"path"`
	Values []json.RawMessage `json:"values"`
	Zip    string            `json:"zip,omitempty"`
}

// Values builds axis values from Go values (convenience for Go-side
// grid construction).
func Values[T any](vals ...T) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		b, _ := json.Marshal(v)
		out[i] = b
	}
	return out
}

// Strings builds axis values from strings.
func Strings(vals ...string) []json.RawMessage { return Values(vals...) }

// Grid is a declarative sweep: a base scenario plus swept axes.
type Grid struct {
	Name string        `json:"name,omitempty"`
	Base scenario.Spec `json:"base"`
	Axes []Axis        `json:"axes"`
	// MaxPoints overrides DefaultMaxPoints (min 1, max HardMaxPoints).
	MaxPoints int `json:"max_points,omitempty"`
}

// Coord is one rendered axis assignment of a point.
type Coord struct {
	Path  string `json:"path"`
	Value string `json:"value"`
}

// PointSpec is what the engine needs of a point spec S (a struct,
// strictly decoded from each patched point document): validation
// into canonical form, the canonical encoding identity hashes, and an
// admission cost class.
type PointSpec[S any] interface {
	Normalize() (S, error)
	Key() string
	Cost() string
}

// PointOf is one expanded grid point: a validated, normalized spec
// plus the axis assignment that produced it.
type PointOf[S any] struct {
	Index  int
	Spec   S
	Coords []Coord
}

// Point is one expanded scenario sweep point.
type Point = PointOf[scenario.Spec]

// Family is what one kind of grid brings to the engine.
type Family[S PointSpec[S]] struct {
	// Prefix starts the family's point and max_points error texts.
	Prefix string
	// Namespace starts the family's content IDs ("<namespace>:<hash>").
	Namespace string
	// Label titles unnamed grids ("<label> a × b").
	Label string
	// DefaultMaxPoints caps expansion when a grid sets no bound;
	// HardMaxPoints is the ceiling no grid may raise its bound above.
	DefaultMaxPoints, HardMaxPoints int
	// HeavyPoints is the point count above which a grid is heavy.
	HeavyPoints int
	// MaxShard caps the consecutive points one worker-pool unit runs.
	// Batching cheap points amortizes dispatch; a point that is a
	// whole simulation has no dispatch cost worth amortizing, and a
	// shard of them only serializes the heaviest points at the tail.
	MaxShard int
}

// family is the scenario sweep.
var family = Family[scenario.Spec]{
	Prefix:           "sweep",
	Namespace:        "sweep",
	Label:            "sweep over",
	DefaultMaxPoints: DefaultMaxPoints,
	HardMaxPoints:    HardMaxPoints,
	HeavyPoints:      32,
	MaxShard:         16,
}

// axisGroup is one odometer digit: either a single axis or a zipped
// bundle advancing together.
type axisGroup struct {
	axes   []int // indices into Grid.Axes
	length int
}

// groupAxes partitions the axes into odometer digits, in order of
// first appearance.
func groupAxes(axes []Axis) ([]axisGroup, error) {
	var out []axisGroup
	zipIndex := map[string]int{}
	for i, ax := range axes {
		if strings.TrimSpace(ax.Path) == "" {
			return nil, fmt.Errorf("sweep: axis %d has an empty path", i)
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Path)
		}
		if ax.Zip == "" {
			out = append(out, axisGroup{axes: []int{i}, length: len(ax.Values)})
			continue
		}
		if gi, ok := zipIndex[ax.Zip]; ok {
			if out[gi].length != len(ax.Values) {
				return nil, fmt.Errorf("sweep: zipped axis %q has %d values, group %q has %d", ax.Path, len(ax.Values), ax.Zip, out[gi].length)
			}
			out[gi].axes = append(out[gi].axes, i)
			continue
		}
		zipIndex[ax.Zip] = len(out)
		out = append(out, axisGroup{axes: []int{i}, length: len(ax.Values)})
	}
	return out, nil
}

// applyPath sets a dot-separated path in a JSON object tree,
// creating intermediate objects as needed.
func applyPath(doc map[string]any, path string, value json.RawMessage) error {
	parts := strings.Split(path, ".")
	cur := doc
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur[p]
		if !ok || next == nil {
			m := map[string]any{}
			cur[p] = m
			cur = m
			continue
		}
		m, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("sweep: path %q descends into non-object %q", path, p)
		}
		cur = m
	}
	var v any
	if err := json.Unmarshal(value, &v); err != nil {
		return fmt.Errorf("sweep: axis %q value %s: %w", path, value, err)
	}
	cur[parts[len(parts)-1]] = v
	return nil
}

// coordValue renders an axis value for tables: bare strings lose
// their quotes, everything else is compact JSON.
func coordValue(raw json.RawMessage) string {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return s
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

// Expand materializes a grid: every combination of axis values is
// patched into the JSON form of base (row-major, the last axis group
// advancing fastest, at most maxPoints points — 0 means the family
// default), strictly decoded, normalized, and offered to admit when
// it is non-nil, which may reject the expansion with a running bound
// of its own.
func (f Family[S]) Expand(base S, axes []Axis, maxPoints int, admit func(idx int, spec S) error) ([]PointOf[S], error) {
	groups, err := groupAxes(axes)
	if err != nil {
		return nil, err
	}
	switch {
	case maxPoints == 0:
		maxPoints = f.DefaultMaxPoints
	case maxPoints < 1 || maxPoints > f.HardMaxPoints:
		return nil, fmt.Errorf("%s: max_points %d out of range [1, %d]", f.Prefix, maxPoints, f.HardMaxPoints)
	}
	total := 1
	for _, gr := range groups {
		total *= gr.length
		if total > maxPoints {
			return nil, fmt.Errorf("sweep: grid expands past the %d-point bound", maxPoints)
		}
	}

	baseJSON, err := json.Marshal(base)
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal base spec: %w", err)
	}

	var points []PointOf[S]
	odo := make([]int, len(groups))
	for idx := 0; idx < total; idx++ {
		var doc map[string]any
		if err := json.Unmarshal(baseJSON, &doc); err != nil {
			return nil, fmt.Errorf("sweep: base spec: %w", err)
		}
		coords := make([]Coord, 0, len(axes))
		for gi, gr := range groups {
			for _, ai := range gr.axes {
				ax := axes[ai]
				val := ax.Values[odo[gi]]
				if err := applyPath(doc, ax.Path, val); err != nil {
					return nil, err
				}
				coords = append(coords, Coord{Path: ax.Path, Value: coordValue(val)})
			}
		}
		patched, err := json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", idx, err)
		}
		var spec S
		dec := json.NewDecoder(bytes.NewReader(patched))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&spec); err == nil {
			spec, err = spec.Normalize()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: point %d (%s): %w", f.Prefix, idx, describeCoords(coords), err)
		}
		if admit != nil {
			if err := admit(idx, spec); err != nil {
				return nil, err
			}
		}
		points = append(points, PointOf[S]{Index: idx, Spec: spec, Coords: coords})

		// Advance the odometer: last group fastest.
		for gi := len(groups) - 1; gi >= 0; gi-- {
			odo[gi]++
			if odo[gi] < groups[gi].length {
				break
			}
			odo[gi] = 0
		}
	}
	return points, nil
}

// Expand materializes the sweep: every combination of axis values
// applied to the base spec, strictly decoded, validated and
// normalized, row-major and bounded by MaxPoints.
func (g Grid) Expand() ([]Point, error) {
	return family.Expand(g.Base, g.Axes, g.MaxPoints, nil)
}

// describeCoords renders an axis assignment for error messages
// ("topology.policy=first-fit, synthetic.rate_hz=0.1").
func describeCoords(coords []Coord) string {
	parts := make([]string, len(coords))
	for i, c := range coords {
		parts[i] = c.Path + "=" + c.Value
	}
	return strings.Join(parts, ", ")
}

// ID returns a grid's content identity: the family namespace plus a
// hash over the name and, per expanded point, the canonical spec and
// the rendered axis assignment. The coords are part of identity
// because they are part of the rendered table — two grids with equal
// IDs are guaranteed byte-identical output, which is what the serving
// cache requires of a key. (The flip side: re-spelling an axis value
// — "4X4" vs "4x4" — changes the rendered coords and therefore the
// identity, even though the underlying specs normalize identically.)
func (f Family[S]) ID(name string, points []PointOf[S]) string {
	h := sha256.New()
	h.Write([]byte(name))
	for _, p := range points {
		h.Write([]byte{0})
		h.Write([]byte(p.Spec.Key()))
		for _, c := range p.Coords {
			h.Write([]byte{1})
			h.Write([]byte(c.Path))
			h.Write([]byte{2})
			h.Write([]byte(c.Value))
		}
	}
	return f.Namespace + ":" + hex.EncodeToString(h.Sum(nil)[:6])
}

// Cost derives a grid's admission cost class from its points: a grid
// is never cheap (it must not starve the cheap registry artifacts it
// shares the serving layer with), and it is heavy when it has more
// than HeavyPoints points or contains any heavy point.
func (f Family[S]) Cost(points []PointOf[S]) string {
	if len(points) > f.HeavyPoints {
		return scenario.CostHeavy
	}
	for _, p := range points {
		if p.Spec.Cost() == scenario.CostHeavy {
			return scenario.CostHeavy
		}
	}
	return scenario.CostModerate
}

// Title returns a grid's human label: its name, or the family label
// over the swept paths.
func (f Family[S]) Title(name string, axes []Axis) string {
	if name != "" {
		return name
	}
	return f.Label + " " + strings.Join(axisPaths(axes), " × ")
}

// axisPaths lists the axes' paths in declaration order (nil for no
// axes, which results encode as null).
func axisPaths(axes []Axis) []string {
	if len(axes) == 0 {
		return nil
	}
	paths := make([]string, len(axes))
	for i, ax := range axes {
		paths[i] = ax.Path
	}
	return paths
}

// ID returns the sweep's content identity ("sweep:<hash>").
func ID(name string, points []Point) string { return family.ID(name, points) }

// Cost derives the sweep's admission cost class from its points.
func Cost(points []Point) string { return family.Cost(points) }

// Title returns the sweep's human label.
func (g Grid) Title() string { return family.Title(g.Name, g.Axes) }
