package harness

// Table2 returns the paper's qualitative comparison (Table 2) verbatim.
// Each cell is backed by behavioural tests: full precision by the
// cross-engine equivalences, memorisation and reuse by the cache metrics,
// and on-demandness by the offline-pass counters.
func Table2(Options) (Table, error) {
	return Table{
		Title:  []string{"Table 2: strengths and weaknesses of four demand-driven points-to analyses"},
		Header: []string{"Algorithm", "Full Precision", "Memorization", "Reuse", "On-Demandness"},
		Rows: [][]string{
			{"NOREFINE", "Yes", "No", "No", "Yes"},
			{"REFINEPTS", "Yes", "Dynamic (within queries)", "Context Dependent", "Yes"},
			{"STASUM", "No", "Static (across queries)", "Context Independent", "Partly"},
			{"DYNSUM", "Yes", "Dynamic (across queries)", "Context Independent", "Yes"},
		},
	}, nil
}
