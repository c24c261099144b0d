package harness

import (
	"fmt"

	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/stasum"
)

// Figure5Series is one benchmark's cumulative-summary series for one
// client (paper Figure 5): after each batch of queries, the number of PPTA
// summaries DYNSUM has had to compute so far, as a percentage of the
// summaries STASUM precomputes offline for the whole program. Computed
// summaries (the Summaries work counter) rather than cache population is
// the figure's quantity: the memoised engine writes back one cache entry
// per visited state precisely so that it computes fewer summaries, and
// the offline/on-demand comparison is about computation performed.
type Figure5Series struct {
	Bench         string
	Client        string
	StaSumTotal   int
	DynCumulative []int     // after each batch
	Percent       []float64 // DynCumulative / StaSumTotal * 100
}

// RunFigure5 produces the series for one benchmark and client.
func RunFigure5(opts Options, bench, client string) Figure5Series {
	opts = opts.WithDefaults()
	prog := opts.program(bench)

	sta := stasum.New(prog.G, opts.config(), nil)
	dyn := core.NewDynSum(prog.G, opts.config(), nil)

	series := Figure5Series{Bench: bench, Client: client, StaSumTotal: sta.SummaryCount()}
	for _, batch := range batches(prog, client, opts.Batches) {
		computed := int(runClient(client, batch, dyn).Metrics.Summaries)
		series.DynCumulative = append(series.DynCumulative, computed)
		pct := 0.0
		if series.StaSumTotal > 0 {
			pct = 100 * float64(computed) / float64(series.StaSumTotal)
		}
		series.Percent = append(series.Percent, pct)
	}
	return series
}

// FinalPercent returns the last cumulative percentage (the figure's
// headline statistic: 41.3 / 47.7 / 37.3 % on average in the paper).
func (s Figure5Series) FinalPercent() float64 {
	if len(s.Percent) == 0 {
		return 0
	}
	return s.Percent[len(s.Percent)-1]
}

// paperFinalPercents are the paper's average final percentages per client.
var paperFinalPercents = map[string]string{"SafeCast": "41.3%", "NullDeref": "47.7%", "FactoryM": "37.3%"}

// Figure5 lays the series for the paper's three benchmarks out one row
// per (client, benchmark, batch), with each client's average final
// percentage as a footer line.
func Figure5(opts Options) (Table, error) {
	opts = opts.WithDefaults()
	t := Table{
		Title:  []string{fmt.Sprintf("Figure 5: cumulative DYNSUM summaries as %% of STASUM's offline total (scale %.3f)", opts.Scale)},
		Header: []string{"client", "benchmark", "batch", "dyn-summaries", "stasum-total", "percent"},
	}
	for _, client := range clients.Names() {
		avg, n := 0.0, 0
		for _, bench := range opts.figureBenchmarks() {
			s := RunFigure5(opts, bench, client)
			for i := range s.Percent {
				t.addf("%s\t%s\t%d\t%d\t%d\t%.1f", client, bench, i+1,
					s.DynCumulative[i], s.StaSumTotal, s.Percent[i])
			}
			avg += s.FinalPercent()
			n++
		}
		if n > 0 {
			avg /= float64(n)
		}
		t.Footer = append(t.Footer, fmt.Sprintf("average final on %s: %.1f%% (paper: %s)",
			client, avg, paperFinalPercents[client]))
	}
	return t, nil
}
