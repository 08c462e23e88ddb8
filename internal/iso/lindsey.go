package iso

import (
	"fmt"
	"sort"

	"netpart/internal/torus"
)

// LindseyPerimeter returns the exact minimum perimeter over all subsets
// of size t in the Cartesian product of cliques
// K_{a_1} x ... x K_{a_D} — the HyperX network graph — by Lindsey's
// theorem [24]: vertices taken "in order of descending clique size"
// (paper §5) are edge-isoperimetric. Concretely, the optimal set is an
// initial segment of the lexicographic order in which the coordinate of
// the largest clique varies fastest, i.e. whole copies of the largest
// cliques are filled first.
func LindseyPerimeter(dims torus.Shape, t int) (int, error) {
	if err := dims.Validate(); err != nil {
		return 0, err
	}
	v := dims.Volume()
	if t < 0 || t > v {
		return 0, fmt.Errorf("iso: subset size %d out of range [0, %d]", t, v)
	}
	// Order dimensions ascending: the outermost (slowest) coordinate is
	// the smallest clique, so initial segments fill the largest cliques
	// first.
	asc := dims.Clone()
	sort.Ints(asc)
	return cliqueSegmentPerimeter(asc, t), nil
}

// cliqueSegmentPerimeter computes the perimeter of a lex initial
// segment by recursion on the outermost dimension. With a = dims[0]
// and M the volume of the remaining product, a segment of size t
// consists of q = t/M full copies plus an initial segment of m = t%M
// vertices in the next copy. Edges along dimension 0 form a K_a
// between corresponding positions of the copies; a position present in
// c copies contributes c(a-c) cut edges in that clique.
func cliqueSegmentPerimeter(dims torus.Shape, t int) int {
	if t == 0 || t == dims.Volume() {
		return 0
	}
	a := dims[0]
	if len(dims) == 1 {
		return t * (a - t)
	}
	rest := dims[1:]
	M := rest.Volume()
	q := t / M
	m := t % M
	cut := m*(q+1)*(a-q-1) + (M-m)*q*(a-q)
	if m > 0 {
		cut += cliqueSegmentPerimeter(rest, m)
	}
	return cut
}

// HyperXBisection returns the bisection width of the (regular, unit
// capacity) HyperX network K_{a_1} x ... x K_{a_D}: the exact minimal
// cut over subsets of size floor(V/2), computed via Lindsey's theorem.
// When the halved clique has even size this matches the closed form of
// Ahn et al. [2] — half of one clique K_i, all vertices of the others,
// cutting (a_i/2)^2 * V/a_i edges — minimized over i; for odd sizes
// the exact value can be larger than that formula suggests because no
// clique splits evenly.
func HyperXBisection(dims torus.Shape) (int, error) {
	if err := dims.Validate(); err != nil {
		return 0, err
	}
	v := dims.Volume()
	if v < 2 {
		return 0, fmt.Errorf("iso: HyperX %v has no non-trivial clique", dims)
	}
	return LindseyPerimeter(dims, v/2)
}
