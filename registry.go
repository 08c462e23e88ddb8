package netpart

import (
	"context"
	"sort"

	"netpart/internal/experiments"
	"netpart/internal/tabulate"
)

// Kind classifies an experiment artifact by how the paper presents it.
type Kind string

const (
	// KindTable artifacts render as a single table.
	KindTable Kind = "table"
	// KindFigure artifacts carry series data and render as both a
	// table and a chart.
	KindFigure Kind = "figure"
)

// Cost classifies an experiment's expected runtime, so callers can
// schedule heavy artifacts differently from cheap ones.
type Cost string

const (
	// CostCheap experiments evaluate closed forms or fixed parameter
	// lists: microseconds to milliseconds.
	CostCheap Cost = "cheap"
	// CostModerate experiments enumerate partition geometries or run
	// the CAPS cost model: milliseconds once the bisection cache is
	// warm, longer on first contact.
	CostModerate Cost = "moderate"
	// CostHeavy experiments route every demand of the paper's pairing
	// benchmark at full machine scale (Figures 3/4). No registry
	// experiment runs the flow-level simulator; the class is on the
	// wire, so the pairing figures keep it.
	CostHeavy Cost = "heavy"
)

// artifact is what one experiment run produces before it is wrapped
// into a Result: the rendered table, the chart for figures, and the
// typed figure data when there is one.
type artifact struct {
	table tabulate.Table
	chart *tabulate.Chart
	data  any
}

// Experiment describes one registered artifact of the paper's
// evaluation. The ID is stable across releases ("table6", "figure3")
// and is the handle Runner.Run accepts; Title is the human name
// without the paper numbering.
type Experiment struct {
	ID    string
	Title string
	Kind  Kind
	Cost  Cost

	run func(ctx context.Context, cfg experiments.Config) (artifact, error)
}

// tableExp registers a table-producing generator.
func tableExp(id, title string, cost Cost,
	gen func(experiments.Config, context.Context) (tabulate.Table, error)) Experiment {
	return Experiment{ID: id, Title: title, Kind: KindTable, Cost: cost,
		run: func(ctx context.Context, cfg experiments.Config) (artifact, error) {
			t, err := gen(cfg, ctx)
			return artifact{table: t}, err
		}}
}

// figureExp registers a figure-producing generator through an adapter
// that extracts the rendered table and chart.
func figureExp[F any](id, title string, cost Cost,
	gen func(experiments.Config, context.Context) (F, error),
	table func(F) tabulate.Table, chart func(F) tabulate.Chart) Experiment {
	return Experiment{ID: id, Title: title, Kind: KindFigure, Cost: cost,
		run: func(ctx context.Context, cfg experiments.Config) (artifact, error) {
			f, err := gen(cfg, ctx)
			if err != nil {
				return artifact{}, err
			}
			ch := chart(f)
			return artifact{table: table(f), chart: &ch, data: f}, nil
		}}
}

// registry enumerates all 14 artifacts of the paper's evaluation in
// presentation order. IDs are stable API: new artifacts may be added,
// but existing IDs never change meaning (TestRegistryStable pins them).
var registry = []Experiment{
	tableExp("table1", "Mira partitions with improved geometries", CostModerate, experiments.Config.Table1),
	tableExp("table2", "JUQUEEN best vs worst partitions (differing rows)", CostModerate, experiments.Config.Table2),
	tableExp("table3", "Matrix multiplication experiment parameters", CostCheap, experiments.Config.Table3),
	tableExp("table4", "Strong scaling experiment parameters", CostCheap, experiments.Config.Table4),
	tableExp("table5", "Best-case partitions, JUQUEEN vs hypothetical machines", CostModerate, experiments.Config.Table5),
	tableExp("table6", "Mira current and proposed partitions (full list)", CostModerate, experiments.Config.Table6),
	tableExp("table7", "JUQUEEN allocation best and worst cases (full list)", CostModerate, experiments.Config.Table7),
	figureExp("figure1", "Mira normalized bisection bandwidth", CostModerate,
		experiments.Config.Figure1, BWFigure.Table, BWFigure.Chart),
	figureExp("figure2", "JUQUEEN best/worst normalized bisection bandwidth", CostModerate,
		experiments.Config.Figure2, BWFigure.Table, BWFigure.Chart),
	figureExp("figure3", "Mira bisection pairing (flow-level simulation)", CostHeavy,
		experiments.Config.Figure3, PairingFigure.Table, PairingFigure.Chart),
	figureExp("figure4", "JUQUEEN bisection pairing (flow-level simulation)", CostHeavy,
		experiments.Config.Figure4, PairingFigure.Table, PairingFigure.Chart),
	figureExp("figure5", "Mira matrix multiplication communication time", CostModerate,
		experiments.Config.Figure5, MatmulFigure.Table, MatmulFigure.Chart),
	figureExp("figure6", "Mira strong scaling (n=9408)", CostCheap,
		experiments.Config.Figure6, MatmulFigure.Table, MatmulFigure.Chart),
	figureExp("figure7", "JUQUEEN vs hypothetical machines (best-case BW)", CostModerate,
		experiments.Config.Figure7, BWFigure.Table, BWFigure.Chart),
}

// Registry returns descriptors for every registered experiment, in
// presentation order (tables 1-7, then figures 1-7). The returned
// slice is a copy; mutating it does not affect the registry.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the experiment registered under the given stable ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every registered experiment ID, sorted.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}
