package iso

import "fmt"

// HarperPerimeter returns the exact minimum perimeter |E(S, S̄)| over
// all subsets S of size t in the D-dimensional hypercube Q_D, by
// Harper's theorem [16]: initial segments of the binary
// (lexicographic) vertex order are edge-isoperimetric. The value is
// computed by the standard recursion on the top dimension:
//
//   - if t lies in the lower half-cube, the boundary is the boundary of
//     the segment within Q_{D-1} plus one cross edge per vertex;
//   - if t covers the lower half-cube, the lower half contributes one
//     cross edge for each vertex missing from the upper half, plus the
//     boundary of the remainder within the upper Q_{D-1}.
func HarperPerimeter(D, t int) (int, error) {
	if D < 0 {
		return 0, fmt.Errorf("iso: negative hypercube dimension %d", D)
	}
	if D > 62 {
		return 0, fmt.Errorf("iso: hypercube dimension %d too large", D)
	}
	size := 1 << uint(D)
	if t < 0 || t > size {
		return 0, fmt.Errorf("iso: subset size %d out of range [0, %d]", t, size)
	}
	return harperRec(D, t), nil
}

func harperRec(D, t int) int {
	if t == 0 || t == 1<<uint(D) {
		return 0
	}
	half := 1 << uint(D-1)
	if t <= half {
		return harperRec(D-1, t) + t
	}
	m := t - half
	return harperRec(D-1, m) + (half - m)
}

// HypercubeBisection returns the bisection width of Q_D, which equals
// 2^{D-1} (cut all edges in one dimension).
func HypercubeBisection(D int) (int, error) {
	if D < 1 || D > 62 {
		return 0, fmt.Errorf("iso: hypercube dimension %d out of range [1, 62]", D)
	}
	return harperRec(D, 1<<uint(D-1)), nil
}
