package bgq

import "netpart/internal/torus"

// The machine catalog of the paper: the two systems it benchmarks
// (Mira, JUQUEEN), the one it analyzes without experiments (Sequoia),
// and the two hypothetical machines of §5's machine-design discussion
// (JUQUEEN-48, JUQUEEN-54).

// Mira returns the Argonne Blue Gene/Q: 48 racks, 96 midplanes in a
// 4x4x3x2 grid (49152 nodes, network 16x16x12x8x2), with the
// predefined partition list of Table 6.
func Mira() *Machine {
	m, err := NewMachine("Mira", torus.Shape{4, 4, 3, 2})
	if err != nil {
		panic(err)
	}
	// Table 6, "Current Geometry" column.
	err = m.SetPredefined([]torus.Shape{
		{1, 1, 1, 1},
		{2, 1, 1, 1},
		{4, 1, 1, 1},
		{4, 2, 1, 1},
		{4, 4, 1, 1},
		{4, 3, 2, 1},
		{4, 4, 2, 1},
		{4, 4, 3, 1},
		{4, 4, 2, 2},
		{4, 4, 3, 2},
	})
	if err != nil {
		panic(err)
	}
	return m
}

// Juqueen returns the Jülich Blue Gene/Q: 28 racks, 56 midplanes in a
// 7x2x2x2 grid (28672 nodes, network 28x8x8x8x2). JUQUEEN's scheduler
// permits any cuboid of midplanes that fits, so it has no predefined
// list; use Best/Worst to obtain the extremes of Table 7.
func Juqueen() *Machine {
	m, err := NewMachine("JUQUEEN", torus.Shape{7, 2, 2, 2})
	if err != nil {
		panic(err)
	}
	return m
}

// Sequoia returns the Lawrence Livermore Blue Gene/Q: 96 racks, 192
// midplanes in a 4x4x4x3 grid (98304 nodes, network 16x16x16x12x2).
// Its scheduler appears to support all geometries the network allows
// (paper §5), so like JUQUEEN it has no predefined list.
func Sequoia() *Machine {
	m, err := NewMachine("Sequoia", torus.Shape{4, 4, 4, 3})
	if err != nil {
		panic(err)
	}
	return m
}

// Juqueen54 returns the hypothetical 54-midplane machine of §5 with
// balanced dimensions 3x3x3x2. Although smaller than JUQUEEN, its
// partitions' bisection bandwidths dominate JUQUEEN's at nearly every
// size (Figure 7, Table 5).
func Juqueen54() *Machine {
	m, err := NewMachine("JUQUEEN-54", torus.Shape{3, 3, 3, 2})
	if err != nil {
		panic(err)
	}
	return m
}

// Juqueen48 returns the hypothetical 48-midplane machine of §5 with
// dimensions 4x3x2x2.
func Juqueen48() *Machine {
	m, err := NewMachine("JUQUEEN-48", torus.Shape{4, 3, 2, 2})
	if err != nil {
		panic(err)
	}
	return m
}
