package main

import (
	"math"
	"slices"
	"time"
)

type metricKind uint8

const (
	endToEnd metricKind = iota // BENCHMARK.json end_to_end: from the untraced run
	perLayer                   // BENCHMARK.json per_layer: from the traced run and the replay
	extra                      // printed and saved, but not on every workload or not a speed
)

type metricDef struct {
	name, unit, better string
	kind               metricKind
	// exact marks counts that repeat exactly for the same seed and
	// request budget; -compare requires them to be identical.
	exact bool
}

// metricDefs is every number the ledger reports, in print order.
// BENCHMARK.json lists the endToEnd and perLayer ones; the smoke test
// holds the two in step.
var metricDefs = []metricDef{
	{"query_p50_ms", "ms", "lower", endToEnd, false},
	{"query_p99_ms", "ms", "lower", endToEnd, false},
	{"queries_per_s", "1/s", "higher", endToEnd, false},
	{"setup_s", "s", "lower", endToEnd, false},
	{"peak_rss_mb", "MB", "lower", endToEnd, false},

	// Correctness is the run's correct/failed fields; these restate it.
	{"failed_frac", "ratio", "lower", extra, false},
	{"wrong_answers", "count", "lower", extra, true},
	// Only evolve-replay applies deltas. Its queries_per_s is over the
	// phase wall clock, which includes every client's wait on its applies.
	{"apply_p50_ms", "ms", "lower", extra, false},
	{"apply_p90_ms", "ms", "lower", extra, false},
	// One sample of a few milliseconds except where sessions persist, so
	// too noisy to bound.
	{"drain_s", "s", "lower", extra, false},

	{"dynsumd.self_us_p50", "us", "lower", perLayer, false},
	{"dynsumd.self_us_p99", "us", "lower", perLayer, false},
	{"dynsumd.reply_bytes_per_query", "B", "lower", perLayer, false},
	{"serve.queue_us_p50", "us", "lower", perLayer, false},
	{"serve.queue_us_p99", "us", "lower", perLayer, false},
	{"serve.run_us_p50", "us", "lower", perLayer, false},
	{"serve.run_us_p99", "us", "lower", perLayer, false},
	{"serve.cheap_frac", "ratio", "higher", perLayer, true},
	{"serve.refused_frac", "ratio", "lower", perLayer, false},
	{"core.batch_us_p50", "us", "lower", perLayer, false},
	{"core.batch_us_p99", "us", "lower", perLayer, false},
	{"core.edges_per_query", "count", "lower", perLayer, true},
	{"core.ppta_visits_per_query", "count", "lower", perLayer, true},
	{"core.summaries_computed_per_query", "count", "lower", perLayer, true},
	{"core.spliced_per_query", "count", "higher", perLayer, true},
	{"core.tuples_per_query", "count", "lower", perLayer, true},
	{"core.cache_hit_ratio", "ratio", "higher", perLayer, true},
	{"core.allocs_per_query", "count", "lower", perLayer, false},
	{"core.bytes_per_query", "B", "lower", perLayer, false},
	{"core.summaries_cached_per_session", "count", "lower", perLayer, true},
	{"core.failed_frac", "ratio", "lower", perLayer, true},
	{"pag.decode_ms", "ms", "lower", perLayer, false},
	{"pag.freeze_ms", "ms", "lower", perLayer, false},
	{"pag.nodes", "count", "lower", perLayer, true},
	{"pag.rep_frac", "ratio", "lower", perLayer, true},
	{"persist.save_ms_p50", "ms", "lower", perLayer, false},
	{"persist.open_ms_p50", "ms", "lower", perLayer, false},
	{"persist.bytes_per_session", "B", "lower", perLayer, true},
	{"ledger.gap_frac", "ratio", "lower", perLayer, false},
	{"trace.overhead_frac", "ratio", "lower", perLayer, false},

	{"dynsumd.apply_self_ms_p50", "ms", "lower", extra, false},
	{"delta.decode_us_p50", "us", "lower", extra, false},
	{"delta.apply_ms_p50", "ms", "lower", extra, false},
	{"delta.apply_ms_p90", "ms", "lower", extra, false},
	{"delta.payload_kb_per_apply", "kB", "lower", extra, true},
	{"delta.invalidated_per_apply", "count", "lower", extra, true},
	{"delta.overlay_fraction", "ratio", "lower", extra, true},
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// pctDur is the nearest-rank q-quantile of ds (0 for none).
func pctDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// median is Python's statistics.median.
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
