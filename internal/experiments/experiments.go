// Package experiments regenerates every table and figure of the
// paper's evaluation: the partition-analysis tables (1, 2, 5, 6, 7)
// and bandwidth figures (1, 2, 7) from the exact isoperimetric
// machinery, the bisection-pairing experiment (Figures 3, 4) from the
// routed link loads, which equal the flow-level simulation's time by
// the makespan theorem (netsim package comment), and the
// matrix-multiplication experiments (Tables 3, 4; Figures 5, 6)
// through the calibrated CAPS cost model.
//
// Every generator is a method on Config, takes a context, and returns
// an error: per-call worker pools replace the old package-global
// tuning knob, catalog inconsistencies surface instead of producing
// zero rows, and cancellation aborts long sweeps promptly (the worker
// pool stops handing out units). The public artifact registry over these
// generators is the root netpart package's Registry/Runner API; the
// per-experiment index lives in DESIGN.md and the measured-vs-paper
// record in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"

	"netpart/internal/bgq"
	"netpart/internal/model"
	"netpart/internal/tabulate"
)

// Table1 reproduces paper Table 1: Mira rows where the proposed
// geometry strictly improves the bisection.
func (c Config) Table1(ctx context.Context) (tabulate.Table, error) {
	t := tabulate.Table{
		Title:   "Table 1: Mira partitions with improved geometries",
		Headers: []string{"P (nodes)", "Midplanes", "Current", "BW", "Proposed", "Proposed BW"},
	}
	mira, err := c.machine("mira")
	if err != nil {
		return t, err
	}
	sizes := mira.PredefinedSizes()
	if len(sizes) == 0 {
		return t, fmt.Errorf("experiments: %s has no predefined partition list", mira.Name)
	}
	rows, err := c.tableRows(ctx, len(sizes), func(i int) ([]any, error) {
		size := sizes[i]
		cur, ok := mira.Predefined(size)
		if !ok {
			return nil, fmt.Errorf("experiments: %s predefined list lost size %d", mira.Name, size)
		}
		prop, improved := mira.Proposed(size)
		if !improved {
			return nil, nil
		}
		return []any{cur.Nodes(), size, cur.String(), cur.BisectionBW(), prop.String(), prop.BisectionBW()}, nil
	})
	if err != nil {
		return t, err
	}
	addRows(&t, rows)
	return t, nil
}

// Table2 reproduces paper Table 2: JUQUEEN sizes where worst and best
// geometries differ.
func (c Config) Table2(ctx context.Context) (tabulate.Table, error) {
	t := tabulate.Table{
		Title:   "Table 2: JUQUEEN best vs worst partitions (differing rows)",
		Headers: []string{"P (nodes)", "Midplanes", "Worst", "Worst BW", "Best", "Best BW"},
	}
	jq, err := c.machine("juqueen")
	if err != nil {
		return t, err
	}
	sizes := jq.FeasibleSizes()
	rows, err := c.tableRows(ctx, len(sizes), func(i int) ([]any, error) {
		size := sizes[i]
		worst, best, err := extremes(jq, size)
		if err != nil {
			return nil, err
		}
		if worst.BisectionBW() == best.BisectionBW() {
			return nil, nil
		}
		return []any{worst.Nodes(), size, worst.String(), worst.BisectionBW(), best.String(), best.BisectionBW()}, nil
	})
	if err != nil {
		return t, err
	}
	addRows(&t, rows)
	return t, nil
}

// extremes returns the worst and best geometries of a feasible size,
// as an error rather than a zero partition when the size is infeasible
// (a corrupted catalog, or a caller-supplied machine too small for the
// experiment's hardcoded sizes).
func extremes(m *bgq.Machine, size int) (worst, best bgq.Partition, err error) {
	worst, ok := m.Worst(size)
	if !ok {
		return worst, best, fmt.Errorf("experiments: no %d-midplane cuboid fits %s", size, m.Name)
	}
	best, _ = m.Best(size)
	return worst, best, nil
}

// Table6 reproduces paper Table 6: the full Mira partition list. Rows
// are computed on the worker pool (each involves a best-geometry
// search) and assembled in size order.
func (c Config) Table6(ctx context.Context) (tabulate.Table, error) {
	t := tabulate.Table{
		Title:   "Table 6: Mira current and proposed partitions (full list)",
		Headers: []string{"P (nodes)", "Midplanes", "Current", "BW", "New Geometry", "New BW"},
	}
	mira, err := c.machine("mira")
	if err != nil {
		return t, err
	}
	sizes := mira.PredefinedSizes()
	if len(sizes) == 0 {
		return t, fmt.Errorf("experiments: %s has no predefined partition list", mira.Name)
	}
	rows, err := c.tableRows(ctx, len(sizes), func(i int) ([]any, error) {
		size := sizes[i]
		cur, ok := mira.Predefined(size)
		if !ok {
			return nil, fmt.Errorf("experiments: %s predefined list lost size %d", mira.Name, size)
		}
		prop, improved := mira.Proposed(size)
		ps, pbw := "", ""
		if improved {
			ps = prop.String()
			pbw = fmt.Sprintf("%d", prop.BisectionBW())
		}
		return []any{cur.Nodes(), size, cur.String(), cur.BisectionBW(), ps, pbw}, nil
	})
	if err != nil {
		return t, err
	}
	addRows(&t, rows)
	return t, nil
}

// Table7 reproduces paper Table 7: the full JUQUEEN worst/best list.
// Each row's worst/best geometry search runs on the worker pool.
func (c Config) Table7(ctx context.Context) (tabulate.Table, error) {
	t := tabulate.Table{
		Title:   "Table 7: JUQUEEN allocation best and worst cases (full list)",
		Headers: []string{"P (nodes)", "Midplanes", "Worst", "Worst BW", "Best", "Best BW"},
	}
	jq, err := c.machine("juqueen")
	if err != nil {
		return t, err
	}
	sizes := jq.FeasibleSizes()
	rows, err := c.tableRows(ctx, len(sizes), func(i int) ([]any, error) {
		size := sizes[i]
		worst, best, err := extremes(jq, size)
		if err != nil {
			return nil, err
		}
		bs, bbw := "", ""
		if best.BisectionBW() != worst.BisectionBW() {
			bs = best.String()
			bbw = fmt.Sprintf("%d", best.BisectionBW())
		}
		return []any{worst.Nodes(), size, worst.String(), worst.BisectionBW(), bs, bbw}, nil
	})
	if err != nil {
		return t, err
	}
	addRows(&t, rows)
	return t, nil
}

// Table5 reproduces paper Table 5: best-case partitions of JUQUEEN and
// the hypothetical JUQUEEN-54 and JUQUEEN-48.
func (c Config) Table5(ctx context.Context) (tabulate.Table, error) {
	t := tabulate.Table{
		Title:   "Table 5: best-case partitions, JUQUEEN vs hypothetical machines",
		Headers: []string{"P (nodes)", "Midplanes", "JUQUEEN", "J BW", "JUQUEEN-54", "J-54 BW", "JUQUEEN-48", "J-48 BW"},
	}
	machines, err := c.machineSet("juqueen", "juqueen54", "juqueen48")
	if err != nil {
		return t, err
	}
	sizes := unionSizes(machines...)
	rows, err := c.tableRows(ctx, len(sizes), func(i int) ([]any, error) {
		size := sizes[i]
		cells := []any{size * bgq.MidplaneNodes, size}
		for _, m := range machines {
			if best, ok := m.Best(size); ok {
				cells = append(cells, best.String(), best.BisectionBW())
			} else {
				cells = append(cells, "", "")
			}
		}
		return cells, nil
	})
	if err != nil {
		return t, err
	}
	addRows(&t, rows)
	return t, nil
}

// machineSet resolves several machines, failing on the first the
// catalog cannot supply.
func (c Config) machineSet(names ...string) ([]*bgq.Machine, error) {
	ms := make([]*bgq.Machine, len(names))
	for i, name := range names {
		m, err := c.machine(name)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

func unionSizes(ms ...*bgq.Machine) []int {
	seen := map[int]bool{}
	var sizes []int
	for _, m := range ms {
		for _, s := range m.FeasibleSizes() {
			if !seen[s] {
				seen[s] = true
				sizes = append(sizes, s)
			}
		}
	}
	// insertion sort (short list)
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] < sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	return sizes
}

// BWFigure is a normalized-bisection-bandwidth series figure
// (Figures 1, 2 and 7).
type BWFigure struct {
	Title  string
	X      []int // midplane counts
	Series []tabulate.Series
}

// Table renders the figure data as a table.
func (f BWFigure) Table() tabulate.Table {
	t := tabulate.Table{Title: f.Title, Headers: []string{"Midplanes"}}
	for _, s := range f.Series {
		t.Headers = append(t.Headers, s.Label)
	}
	for i, x := range f.X {
		cells := []any{x}
		for _, s := range f.Series {
			if math.IsNaN(s.Y[i]) {
				cells = append(cells, "")
			} else {
				cells = append(cells, int(s.Y[i]))
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Chart renders the figure as an ASCII chart.
func (f BWFigure) Chart() tabulate.Chart {
	c := tabulate.Chart{Title: f.Title, XLabel: "midplanes", YLabel: "normalized bisection bandwidth", Series: f.Series}
	for _, x := range f.X {
		c.X = append(c.X, fmt.Sprintf("%d", x))
	}
	return c
}

// Figure1 reproduces paper Figure 1: Mira's current vs proposed
// normalized bisection bandwidth over the predefined partition sizes.
func (c Config) Figure1(ctx context.Context) (BWFigure, error) {
	f := BWFigure{Title: "Figure 1: Mira normalized bisection bandwidth"}
	mira, err := c.machine("mira")
	if err != nil {
		return f, err
	}
	sizes := mira.PredefinedSizes()
	if len(sizes) == 0 {
		return f, fmt.Errorf("experiments: %s has no predefined partition list", mira.Name)
	}
	cur := tabulate.Series{Label: "current", Y: make([]float64, len(sizes))}
	prop := tabulate.Series{Label: "proposed", Y: make([]float64, len(sizes))}
	f.X = append(f.X, sizes...)
	if err := c.forEachProgress(ctx, len(sizes), func(i int) error {
		p, ok := mira.Predefined(sizes[i])
		if !ok {
			return fmt.Errorf("experiments: %s predefined list lost size %d", mira.Name, sizes[i])
		}
		cur.Y[i] = float64(p.BisectionBW())
		if prop2, ok := mira.Proposed(sizes[i]); ok {
			prop.Y[i] = float64(prop2.BisectionBW())
		} else {
			prop.Y[i] = cur.Y[i]
		}
		return nil
	}); err != nil {
		return f, err
	}
	f.Series = []tabulate.Series{cur, prop}
	return f, nil
}

// Figure2 reproduces paper Figure 2: JUQUEEN best vs worst-case
// bandwidth across all feasible sizes; ring-shaped sizes are the
// 'spiking drops'.
func (c Config) Figure2(ctx context.Context) (BWFigure, error) {
	f := BWFigure{Title: "Figure 2: JUQUEEN best/worst normalized bisection bandwidth"}
	jq, err := c.machine("juqueen")
	if err != nil {
		return f, err
	}
	sizes := jq.FeasibleSizes()
	worst := tabulate.Series{Label: "worst-case", Y: make([]float64, len(sizes))}
	best := tabulate.Series{Label: "best-case", Y: make([]float64, len(sizes))}
	f.X = append(f.X, sizes...)
	if err := c.forEachProgress(ctx, len(sizes), func(i int) error {
		w, b, err := extremes(jq, sizes[i])
		if err != nil {
			return err
		}
		worst.Y[i] = float64(w.BisectionBW())
		best.Y[i] = float64(b.BisectionBW())
		return nil
	}); err != nil {
		return f, err
	}
	f.Series = []tabulate.Series{worst, best}
	return f, nil
}

// Figure7 reproduces paper Figure 7: best-case bandwidth of JUQUEEN
// vs the hypothetical JUQUEEN-48 and JUQUEEN-54 (missing sizes NaN).
func (c Config) Figure7(ctx context.Context) (BWFigure, error) {
	f := BWFigure{Title: "Figure 7: JUQUEEN vs hypothetical machines (best-case BW)"}
	machines, err := c.machineSet("juqueen", "juqueen48", "juqueen54")
	if err != nil {
		return f, err
	}
	f.X = unionSizes(machines...)
	for _, m := range machines {
		f.Series = append(f.Series, tabulate.Series{Label: m.Name, Y: make([]float64, len(f.X))})
	}
	if err := c.forEachProgress(ctx, len(f.X), func(i int) error {
		for mi, m := range machines {
			if best, ok := m.Best(f.X[i]); ok {
				f.Series[mi].Y[i] = float64(best.BisectionBW())
			} else {
				f.Series[mi].Y[i] = math.NaN()
			}
		}
		return nil
	}); err != nil {
		return f, err
	}
	return f, nil
}

// Table3 reproduces paper Table 3: the matmul experiment parameters.
func (c Config) Table3(ctx context.Context) (tabulate.Table, error) {
	t := tabulate.Table{
		Title:   "Table 3: matrix multiplication experiment parameters (Mira)",
		Headers: []string{"P (nodes)", "Midplanes", "MPI Ranks", "Max active cores", "Avg cores per proc", "Matrix dim"},
	}
	mira, err := c.machine("mira")
	if err != nil {
		return t, err
	}
	mps := []int{4, 8, 16, 24}
	rows, err := c.tableRows(ctx, len(mps), func(i int) ([]any, error) {
		mp := mps[i]
		p, ok := mira.Predefined(mp)
		if !ok {
			return nil, fmt.Errorf("experiments: %s has no predefined %d-midplane partition for Table 3", mira.Name, mp)
		}
		cfg := MatmulTable3Config(mp, p)
		return []any{p.Nodes(), mp, cfg.Ranks, cfg.MaxActiveCores(),
			fmt.Sprintf("%.2f", cfg.RanksPerNode()), cfg.N}, nil
	})
	if err != nil {
		return t, err
	}
	addRows(&t, rows)
	return t, nil
}

// MatmulTable3Config returns the paper's Table 3 configuration for a
// Mira midplane count and partition (4/8/16 midplanes share one
// configuration; 24 midplanes uses 7^6 ranks on a smaller matrix).
func MatmulTable3Config(midplanes int, p bgq.Partition) model.MatmulConfig {
	switch midplanes {
	case 4, 8, 16:
		return model.MatmulConfig{N: 32928, Ranks: 31213, BFSSteps: 4, Partition: p}
	case 24:
		return model.MatmulConfig{N: 21952, Ranks: 117649, BFSSteps: 6, Partition: p}
	default:
		panic(fmt.Sprintf("experiments: Table 3 has no %d-midplane row", midplanes))
	}
}

// Table4 reproduces paper Table 4: the strong-scaling parameters.
func (c Config) Table4(ctx context.Context) (tabulate.Table, error) {
	t := tabulate.Table{
		Title:   "Table 4: strong scaling experiment parameters (Mira, n=9408)",
		Headers: []string{"P (nodes)", "Midplanes", "MPI Ranks", "Max active cores", "Avg cores per proc", "Current BW", "Proposed BW"},
	}
	mps := []int{2, 4, 8}
	rows, err := c.tableRows(ctx, len(mps), func(i int) ([]any, error) {
		mp := mps[i]
		cur, prop := Table4Partitions(mp)
		cfg := Table4Config(mp, cur)
		return []any{cur.Nodes(), mp, cfg.Ranks, cfg.MaxActiveCores(),
			fmt.Sprintf("%.2f", cfg.RanksPerNode()), cur.BisectionBW(), prop.BisectionBW()}, nil
	})
	if err != nil {
		return t, err
	}
	addRows(&t, rows)
	return t, nil
}

// Table4Partitions returns the current and proposed geometries of the
// strong-scaling experiment (the 2-midplane row has a single possible
// cuboid).
func Table4Partitions(midplanes int) (current, proposed bgq.Partition) {
	switch midplanes {
	case 2:
		p := bgq.MustPartition(2, 1, 1, 1)
		return p, p
	case 4:
		return bgq.MustPartition(4, 1, 1, 1), bgq.MustPartition(2, 2, 1, 1)
	case 8:
		return bgq.MustPartition(4, 2, 1, 1), bgq.MustPartition(2, 2, 2, 1)
	default:
		panic(fmt.Sprintf("experiments: Table 4 has no %d-midplane row", midplanes))
	}
}

// Table4Config returns the CAPS configuration of a Table 4 row: the
// rank count doubles with the midplane count (2401, 4802, 9604).
func Table4Config(midplanes int, p bgq.Partition) model.MatmulConfig {
	return model.MatmulConfig{N: 9408, Ranks: 2401 * midplanes / 2, BFSSteps: 4, Partition: p}
}
