package iso

import (
	"fmt"
	"math"

	"netpart/internal/torus"
)

// Weights assigns a link capacity to each dimension of a torus or
// clique product. Networks with bundled or heterogeneous links
// (Dragonfly's K6 links carry 3 units relative to K16 links; 3D tori
// such as Titan's often bundle multiple physical channels per
// dimension) induce weighted edge-isoperimetric problems (paper §5).
type Weights []float64

// Uniform returns unit weights of the given rank.
func Uniform(rank int) Weights {
	w := make(Weights, rank)
	for i := range w {
		w[i] = 1
	}
	return w
}

func (w Weights) validate(rank int) error {
	if len(w) != rank {
		return fmt.Errorf("iso: %d weights for rank-%d shape", len(w), rank)
	}
	for i, v := range w {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("iso: invalid weight %v in dimension %d", v, i)
		}
	}
	return nil
}

// WeightedCuboidPerimeter returns the total weight of the cuboid's
// boundary edges in a torus whose dimension-i links carry weight w[i]:
// the per-dimension closed form of torus.CuboidPerimeter scaled by the
// dimension weight.
func WeightedCuboidPerimeter(dims torus.Shape, w Weights, lens torus.Shape) (float64, error) {
	if err := dims.Validate(); err != nil {
		return 0, err
	}
	if err := w.validate(len(dims)); err != nil {
		return 0, err
	}
	if len(lens) != len(dims) {
		return 0, fmt.Errorf("iso: cuboid rank %d != torus rank %d", len(lens), len(dims))
	}
	vol := lens.Volume()
	total := 0.0
	for i, s := range lens {
		a := dims[i]
		if s < 1 || s > a {
			return 0, fmt.Errorf("iso: cuboid length %d out of range (0, %d] in dimension %d", s, a, i)
		}
		switch {
		case s == a:
			// covered
		case a == 2:
			total += w[i] * float64(vol/s)
		default:
			total += w[i] * float64(2*vol/s)
		}
	}
	return total, nil
}

// MinWeightedCuboidPerimeter searches all cuboids of volume t fitting
// the torus for the one of minimal weighted perimeter.
func MinWeightedCuboidPerimeter(dims torus.Shape, w Weights, t int) (torus.Shape, float64, error) {
	if err := dims.Validate(); err != nil {
		return nil, 0, err
	}
	if err := w.validate(len(dims)); err != nil {
		return nil, 0, err
	}
	if t < 1 || t > dims.Volume() {
		return nil, 0, fmt.Errorf("iso: subset size %d out of range [1, %d]", t, dims.Volume())
	}
	var bestLens torus.Shape
	best := math.Inf(1)
	for _, geo := range torus.EnumerateGeometries(dims, len(dims), t) {
		for _, lens := range torus.Placements(dims, geo) {
			per, err := WeightedCuboidPerimeter(dims, w, lens)
			if err != nil {
				return nil, 0, err
			}
			if per < best {
				best = per
				bestLens = lens
			}
		}
	}
	if bestLens == nil {
		return nil, 0, fmt.Errorf("iso: no cuboid of volume %d fits in %v", t, dims)
	}
	return bestLens, best, nil
}
