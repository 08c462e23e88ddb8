// Package faults is the declarative failure and degradation model —
// the chaos axis of the experiment stack. A Spec names a failure
// model (explicit link or midplane lists, or seeded random
// generators), a capacity factor (0 fails the affected elements
// outright; (0,1) degrades them) and, for trace simulations, a set of
// time windows during which the failure is live.
//
// Specs are wire-friendly, validated and normalized, and embed into
// scenario and trace specs — so they participate in the content-hash
// cache identity of every experiment that carries them: two requests
// with equal failure specs (and equal host specs) are guaranteed
// byte-identical outcomes.
//
// Resolution is deterministic: the random models draw from a seeded
// generator over a deterministic element enumeration, so the same
// spec always fails the same elements on the same topology —
// sweepable chaos, not flaky chaos.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"netpart/internal/torus"
)

// Failure models.
const (
	// ModelLinks fails/degrades an explicit list of undirected link
	// IDs (the routing backend's deterministic edge enumeration).
	ModelLinks = "links"
	// ModelMidplanes fails an explicit list of midplane cells
	// (row-major indices into the machine's midplane grid).
	ModelMidplanes = "midplanes"
	// ModelRandomLinks fails/degrades a seeded random Fraction of the
	// links.
	ModelRandomLinks = "random_links"
	// ModelRandomMidplanes fails a seeded random Fraction of the
	// midplanes.
	ModelRandomMidplanes = "random_midplanes"
	// ModelCorrelatedRegion fails/degrades a contiguous region grown
	// by BFS from a seeded random center — links in scenarios (a
	// localized network failure), midplanes in trace simulations (a
	// rack-level outage).
	ModelCorrelatedRegion = "correlated_region"
)

// DefaultSeed seeds the random models when the spec leaves Seed zero.
const DefaultSeed = int64(1)

// MaxWindows bounds the outage windows of one spec.
const MaxWindows = 64

// Window is one outage interval [StartSec, EndSec): the failure is
// applied when the window opens and healed when it closes. Specs
// without windows are permanently failed.
type Window struct {
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
}

// Spec is one declarative failure model. The zero value is invalid;
// construct with a Model and call Normalize (the scenario and trace
// normalizers do this for embedded specs).
type Spec struct {
	Model string `json:"model"`
	// Factor is the capacity multiplier of the affected elements: 0
	// (the default) removes them outright — links disappear from
	// routing, midplanes from placement — while a value in
	// (0,1) degrades them (links keep routing at reduced capacity;
	// jobs on degraded midplanes run 1/Factor slower while a window is
	// open). Factor 1 is an explicit no-op, useful as the healthy
	// endpoint of a sweep axis.
	Factor float64 `json:"factor,omitempty"`
	// Seed drives the random models (default DefaultSeed).
	Seed int64 `json:"seed,omitempty"`
	// Fraction is the share of the element universe the random models
	// affect, in [0,1]; 0 is the healthy endpoint of a sweep axis.
	Fraction float64 `json:"fraction,omitempty"`
	// Links are the explicit undirected link IDs of ModelLinks.
	Links []int `json:"links,omitempty"`
	// Midplanes are the explicit midplane cells of ModelMidplanes.
	Midplanes []int `json:"midplanes,omitempty"`
	// Windows are the outage intervals applied by the trace
	// simulator's event loop (sorted, non-overlapping). Empty means
	// the failure holds for the whole run. Scenarios (no time axis)
	// reject windows.
	Windows []Window `json:"windows,omitempty"`
}

func knownModel(m string) bool {
	switch m {
	case ModelLinks, ModelMidplanes, ModelRandomLinks, ModelRandomMidplanes, ModelCorrelatedRegion:
		return true
	}
	return false
}

// LinkScoped reports whether the model addresses links when resolved
// against a network (scenarios). ModelCorrelatedRegion is link-scoped
// in scenarios and midplane-scoped in trace simulations.
func (s Spec) LinkScoped() bool {
	return s.Model == ModelLinks || s.Model == ModelRandomLinks || s.Model == ModelCorrelatedRegion
}

// MidplaneScoped reports whether the model addresses midplane cells.
func (s Spec) MidplaneScoped() bool {
	return s.Model == ModelMidplanes || s.Model == ModelRandomMidplanes
}

// Random reports whether the model consumes the seed.
func (s Spec) Random() bool {
	return s.Model == ModelRandomLinks || s.Model == ModelRandomMidplanes || s.Model == ModelCorrelatedRegion
}

// normIDs validates, sorts and dedupes an explicit ID list.
func normIDs(field string, ids []int) ([]int, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("faults: model needs a non-empty %s list", field)
	}
	out := append([]int(nil), ids...)
	sort.Ints(out)
	dst := out[:0]
	for i, id := range out {
		if id < 0 {
			return nil, fmt.Errorf("faults: %s[%d] = %d is negative", field, i, id)
		}
		if len(dst) == 0 || dst[len(dst)-1] != id {
			dst = append(dst, id)
		}
	}
	return dst, nil
}

// Normalize validates the spec and returns its canonical form: the
// model lower-cased, ID lists sorted and deduped, the seed defaulted
// for random models and zeroed otherwise, and contradictory knobs
// rejected. Range validation against a concrete topology (link and
// midplane ID bounds) happens in the host spec's normalizer, which
// knows the universe sizes.
func (s Spec) Normalize() (Spec, error) {
	n := Spec{Model: strings.ToLower(strings.TrimSpace(s.Model))}
	if !knownModel(n.Model) {
		return Spec{}, fmt.Errorf("faults: unknown model %q (want links, midplanes, random_links, random_midplanes or correlated_region)", s.Model)
	}
	n.Factor = s.Factor
	if math.IsNaN(n.Factor) || n.Factor < 0 || n.Factor > 1 {
		return Spec{}, fmt.Errorf("faults: capacity factor %v out of range [0, 1]", s.Factor)
	}
	if n.Random() {
		if len(s.Links) > 0 || len(s.Midplanes) > 0 {
			return Spec{}, fmt.Errorf("faults: model %s draws its elements from the seed; explicit links/midplanes only apply to the links and midplanes models", n.Model)
		}
		if math.IsNaN(s.Fraction) || s.Fraction < 0 || s.Fraction > 1 {
			return Spec{}, fmt.Errorf("faults: fraction %v out of range [0, 1]", s.Fraction)
		}
		n.Fraction = s.Fraction
		n.Seed = s.Seed
		if n.Seed == 0 {
			n.Seed = DefaultSeed
		}
	} else {
		if s.Fraction != 0 {
			return Spec{}, fmt.Errorf("faults: fraction only applies to the random models, not %s", n.Model)
		}
		if s.Seed != 0 {
			return Spec{}, fmt.Errorf("faults: seed only applies to the random models, not %s", n.Model)
		}
		var err error
		switch n.Model {
		case ModelLinks:
			if len(s.Midplanes) > 0 {
				return Spec{}, fmt.Errorf("faults: model links takes a links list, not midplanes")
			}
			n.Links, err = normIDs("links", s.Links)
		case ModelMidplanes:
			if len(s.Links) > 0 {
				return Spec{}, fmt.Errorf("faults: model midplanes takes a midplanes list, not links")
			}
			n.Midplanes, err = normIDs("midplanes", s.Midplanes)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	if len(s.Windows) > MaxWindows {
		return Spec{}, fmt.Errorf("faults: %d outage windows exceed the %d-window bound", len(s.Windows), MaxWindows)
	}
	prevEnd := 0.0
	for i, w := range s.Windows {
		if math.IsNaN(w.StartSec) || math.IsInf(w.StartSec, 0) || w.StartSec < 0 {
			return Spec{}, fmt.Errorf("faults: window[%d] start %v is not non-negative and finite", i, w.StartSec)
		}
		if math.IsNaN(w.EndSec) || math.IsInf(w.EndSec, 0) || w.EndSec <= w.StartSec {
			return Spec{}, fmt.Errorf("faults: window[%d] [%v, %v) is not a finite forward interval", i, w.StartSec, w.EndSec)
		}
		if w.StartSec < prevEnd {
			return Spec{}, fmt.Errorf("faults: window[%d] starts at %v, overlapping or preceding the previous window ending at %v (windows must be sorted and disjoint)", i, w.StartSec, prevEnd)
		}
		prevEnd = w.EndSec
	}
	if len(s.Windows) > 0 {
		n.Windows = append([]Window(nil), s.Windows...)
	}
	return n, nil
}

// Key returns the canonical JSON encoding of the spec. Embedded specs
// hash through their host spec's Key; standalone callers can use this
// for cache identity.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec contains only marshalable fields; unreachable.
		panic(fmt.Sprintf("faults: marshal spec: %v", err))
	}
	return string(b)
}

// count converts a fraction of a universe into an element count.
func count(fraction float64, n int) int {
	return int(math.Round(fraction * float64(n)))
}

// Universe is the undirected-link fault domain of a network: the link
// count, per-link endpoints (for region growth) and the vertex count.
// Routing backends build one from their deterministic edge
// enumeration, so link IDs are stable for a given topology + routing.
type Universe struct {
	NumVertices int
	EndA, EndB  []int32 // endpoints of link l, len == number of links
}

// ResolveLinks materializes the affected undirected link set of a
// link-scoped spec against the universe: the explicit list validated
// against the bound, or the seeded random/region selection. The
// result is sorted ascending and deterministic.
func (s Spec) ResolveLinks(u Universe) ([]int, error) {
	nl := len(u.EndA)
	switch s.Model {
	case ModelLinks:
		for _, id := range s.Links {
			if id >= nl {
				return nil, fmt.Errorf("faults: link %d out of range (topology has %d links)", id, nl)
			}
		}
		return append([]int(nil), s.Links...), nil
	case ModelRandomLinks:
		rng := rand.New(rand.NewSource(s.Seed))
		k := count(s.Fraction, nl)
		if k == 0 {
			return nil, nil
		}
		picked := rng.Perm(nl)[:k]
		sort.Ints(picked)
		return picked, nil
	case ModelCorrelatedRegion:
		return s.regionLinks(u)
	}
	return nil, fmt.Errorf("faults: model %s is not link-scoped", s.Model)
}

// regionLinks grows a contiguous link region: BFS from a seeded
// random center vertex, collecting every link incident to the visited
// ball until the target count is reached.
func (s Spec) regionLinks(u Universe) ([]int, error) {
	nl := len(u.EndA)
	k := count(s.Fraction, nl)
	if k == 0 {
		return nil, nil
	}
	// Vertex adjacency (vertex -> incident link IDs), CSR-style.
	deg := make([]int32, u.NumVertices+1)
	for l := 0; l < nl; l++ {
		deg[u.EndA[l]+1]++
		deg[u.EndB[l]+1]++
	}
	for v := 0; v < u.NumVertices; v++ {
		deg[v+1] += deg[v]
	}
	inc := make([]int32, deg[u.NumVertices])
	fill := make([]int32, u.NumVertices)
	for l := 0; l < nl; l++ {
		for _, v := range [2]int32{u.EndA[l], u.EndB[l]} {
			inc[deg[v]+fill[v]] = int32(l)
			fill[v]++
		}
	}

	rng := rand.New(rand.NewSource(s.Seed))
	center := int32(rng.Intn(u.NumVertices))
	visited := make([]bool, u.NumVertices)
	taken := make([]bool, nl)
	var region []int
	queue := []int32{center}
	visited[center] = true
	for qi := 0; qi < len(queue) && len(region) < k; qi++ {
		v := queue[qi]
		for _, l := range inc[deg[v]:deg[v+1]] {
			if !taken[l] {
				taken[l] = true
				region = append(region, int(l))
				if len(region) >= k {
					break
				}
			}
			w := u.EndA[l]
			if w == v {
				w = u.EndB[l]
			}
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	sort.Ints(region)
	return region, nil
}

// ResolveMidplanes materializes the affected midplane cells of a
// midplane-scoped spec (or a correlated region in midplane space)
// against a machine's midplane grid. Cells are row-major indices
// (last dimension fastest), matching the scheduler's occupancy grid.
// The result is sorted ascending and deterministic.
func (s Spec) ResolveMidplanes(grid torus.Shape) ([]int, error) {
	tor, err := torus.New(grid...)
	if err != nil {
		return nil, fmt.Errorf("faults: midplane grid %s: %w", grid, err)
	}
	n := tor.NumVertices()
	switch s.Model {
	case ModelMidplanes:
		for _, id := range s.Midplanes {
			if id >= n {
				return nil, fmt.Errorf("faults: midplane %d out of range (machine has %d midplanes)", id, n)
			}
		}
		return append([]int(nil), s.Midplanes...), nil
	case ModelRandomMidplanes:
		rng := rand.New(rand.NewSource(s.Seed))
		k := count(s.Fraction, n)
		if k == 0 {
			return nil, nil
		}
		picked := rng.Perm(n)[:k]
		sort.Ints(picked)
		return picked, nil
	case ModelCorrelatedRegion:
		k := count(s.Fraction, n)
		if k == 0 {
			return nil, nil
		}
		rng := rand.New(rand.NewSource(s.Seed))
		center := rng.Intn(n)
		visited := make([]bool, n)
		visited[center] = true
		region := []int{center}
		var nbuf []int
		for qi := 0; qi < len(region) && len(region) < k; qi++ {
			nbuf = tor.Neighbors(region[qi], nbuf[:0])
			for _, w := range nbuf {
				if !visited[w] {
					visited[w] = true
					region = append(region, w)
					if len(region) >= k {
						break
					}
				}
			}
		}
		sort.Ints(region)
		return region, nil
	}
	return nil, fmt.Errorf("faults: model %s is not midplane-scoped", s.Model)
}
