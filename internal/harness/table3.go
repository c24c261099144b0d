package harness

import (
	"fmt"

	"dynsum/internal/benchgen"
	"dynsum/internal/pag"
)

// Table3Row is one benchmark-statistics row (paper Table 3).
type Table3Row struct {
	Bench    string
	Stats    pag.Stats
	QSafe    int
	QNull    int
	QFactory int
	// PaperLocality is the locality the paper reports for this benchmark,
	// for side-by-side comparison.
	PaperLocality float64
}

// RunTable3 generates each selected benchmark and collects its statistics.
func RunTable3(opts Options) []Table3Row {
	opts = opts.WithDefaults()
	var rows []Table3Row
	for _, p := range opts.profiles() {
		prog := benchgen.Generate(p, opts.Seed)
		rows = append(rows, Table3Row{
			Bench:         p.Name,
			Stats:         prog.G.Stats(),
			QSafe:         len(prog.Casts),
			QNull:         len(prog.Derefs),
			QFactory:      len(prog.Factories),
			PaperLocality: p.Locality(),
		})
	}
	return rows
}

// Table3 lays the statistics out in the paper's column layout.
func Table3(opts Options) (Table, error) {
	opts = opts.WithDefaults()
	t := Table{
		Title: []string{fmt.Sprintf("Table 3: benchmark statistics (scale %.3f, seed %d)", opts.Scale, opts.Seed)},
		Header: []string{"Benchmark", "#Methods", "O", "V", "G", "new", "assign", "load", "store",
			"entry", "exit", "assignglobal", "Locality%", "paper%", "SafeCast", "NullDeref", "FactoryM"},
	}
	for _, r := range RunTable3(opts) {
		s := r.Stats
		t.addf("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%d\t%d\t%d",
			r.Bench, s.Methods, s.Objects, s.LocalVars, s.GlobalVars,
			s.Edges[pag.New], s.Edges[pag.Assign], s.Edges[pag.Load], s.Edges[pag.Store],
			s.Edges[pag.Entry], s.Edges[pag.Exit], s.Edges[pag.AssignGlobal],
			s.Locality(), r.PaperLocality, r.QSafe, r.QNull, r.QFactory)
	}
	return t, nil
}
