package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"dynsum/internal/serve"
)

// span is one timed interval on a request's path. Spans of one request
// share Req; Parent names the enclosing span of the same request.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int64  `json:"req"` // client<<32 | op index; -1 outside any request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// appendRequestSpans records one HTTP request and, for a query, the
// queue wait and run time dynsumd reported. The daemon's clock is not the
// client's, so the two children are centred in the request span: their
// durations are exact, their offsets are not.
func appendRequestSpans(spans []span, req int64, r reply) []span {
	start, end := r.at.UnixNano(), r.at.Add(r.rtt).UnixNano()
	spans = append(spans, span{Name: "dynsumd.request", Req: req, Start: start, End: end})
	if r.lane == "" {
		return spans
	}
	q0 := start + int64(r.rtt-r.queued-r.ran)/2
	q1 := q0 + int64(r.queued)
	return append(spans,
		span{Name: "serve.queue", Parent: "dynsumd.request", Req: req, Start: q0, End: q1},
		span{Name: "serve.run", Parent: "dynsumd.request", Req: req, Start: q1, End: q1 + int64(r.ran)})
}

// timedRTTs returns the round trips of the successful timed ops of kind.
func timedRTTs(inst *instance, hr *httpRun, kind opKind) []time.Duration {
	var out []time.Duration
	for c, ops := range inst.streams {
		for i, o := range ops {
			if r := hr.replies[c][i]; o.kind == kind && !o.warm && r.ok {
				out = append(out, r.rtt)
			}
		}
	}
	return out
}

// measureLayers repeats the HTTP run with tracing on a fresh daemon,
// replays the same streams in process, requires the replay's engine
// counters and lanes to match the daemon's, and sets the per-layer
// metrics. It writes every span to spans.jsonl in the work directory.
func measureLayers(cfg config, bin, pagPath, stateDir, work string, inst *instance, book *answerBook, untraced *httpRun, set func(string, float64)) (*httpRun, error) {
	if stateDir != "" {
		if err := os.RemoveAll(stateDir); err != nil {
			return nil, err
		}
	}
	d, _, err := startDaemon(bin, pagPath, stateDir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	hr, err := drive(d.url, inst, book, true)
	if err != nil {
		return nil, err
	}
	snap, err := d.metrics()
	if err != nil {
		return nil, err
	}
	if _, err := d.stop(); err != nil {
		return nil, err
	}

	stopProfiles, err := startProfiles(cfg)
	if err != nil {
		return nil, err
	}
	rr, err := replay(inst, pagPath, work, hr)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if err := rr.checkFaithful(snap); err != nil {
		return nil, err
	}

	var self, queue, ran []time.Duration
	cheap, replyBytes, vars := 0, 0, 0
	for c, ops := range inst.streams {
		for i, o := range ops {
			r := hr.replies[c][i]
			if o.kind != opQuery || o.warm || !r.ok {
				continue
			}
			self = append(self, r.rtt-r.queued-r.ran)
			queue = append(queue, r.queued)
			ran = append(ran, r.ran)
			if r.lane == serve.LaneCheap.String() {
				cheap++
			}
			replyBytes += r.bytes
			vars += len(o.vars)
		}
	}
	rtt := timedRTTs(inst, hr, opQuery)
	set("dynsumd.self_us_p50", us(pctDur(self, 0.50)))
	set("dynsumd.self_us_p99", us(pctDur(self, 0.99)))
	set("dynsumd.reply_bytes_per_query", ratio(float64(replyBytes), float64(vars)))
	set("serve.queue_us_p50", us(pctDur(queue, 0.50)))
	set("serve.queue_us_p99", us(pctDur(queue, 0.99)))
	set("serve.run_us_p50", us(pctDur(ran, 0.50)))
	set("serve.run_us_p99", us(pctDur(ran, 0.99)))
	set("serve.cheap_frac", ratio(float64(cheap), float64(len(rtt))))
	// Expired requests were admitted first; shed ones never were.
	var offered, refused int64
	for _, lc := range snap.Lanes {
		offered += lc.Admitted + lc.Shed
		refused += lc.Shed + lc.Expired
	}
	set("serve.refused_frac", ratio(float64(refused), float64(offered)))

	t := rr.timed
	n := float64(rr.vars)
	set("core.batch_us_p50", us(pctDur(rr.batch, 0.50)))
	set("core.batch_us_p99", us(pctDur(rr.batch, 0.99)))
	set("core.edges_per_query", ratio(float64(t.EdgesTraversed), n))
	set("core.ppta_visits_per_query", ratio(float64(t.PPTAVisits), n))
	set("core.summaries_computed_per_query", ratio(float64(t.Summaries), n))
	set("core.spliced_per_query", ratio(float64(t.SplicedSummaries), n))
	set("core.tuples_per_query", ratio(float64(t.TuplesVisited), n))
	set("core.cache_hit_ratio", ratio(float64(t.CacheHits), float64(t.CacheHits+t.CacheMisses)))
	set("core.allocs_per_query", ratio(float64(rr.allocs), n))
	set("core.bytes_per_query", ratio(float64(rr.bytes), n))
	set("core.summaries_cached_per_session", ratio(float64(rr.summariesCached), float64(rr.sessions)))
	set("core.failed_frac", ratio(float64(rr.fails), n))

	set("pag.decode_ms", ms(rr.pagDecode))
	set("pag.freeze_ms", ms(rr.pagFreeze))
	set("pag.nodes", float64(rr.nodes))
	set("pag.rep_frac", ratio(float64(rr.reps), float64(rr.nodes)))
	set("persist.save_ms_p50", ms(pctDur(rr.save, 0.5)))
	set("persist.open_ms_p50", ms(pctDur(rr.open, 0.5)))
	var persisted int64
	for _, b := range rr.persistBytes {
		persisted += b
	}
	set("persist.bytes_per_session", ratio(float64(persisted), float64(len(rr.persistBytes))))

	p50 := pctDur(rtt, 0.5)
	gap := p50 - pctDur(self, 0.5) - pctDur(queue, 0.5) - pctDur(rr.batch, 0.5)
	set("ledger.gap_frac", ratio(float64(gap), float64(p50)))
	set("trace.overhead_frac", ratio(float64(p50), float64(pctDur(timedRTTs(inst, untraced, opQuery), 0.5)))-1)

	if len(rr.apply) > 0 {
		var applySelf []time.Duration
		for k, at := range rr.applyIdx {
			if r := hr.replies[at[0]][at[1]]; r.ok {
				applySelf = append(applySelf, r.rtt-rr.decode[k]-rr.apply[k])
			}
		}
		var overlay float64
		for _, f := range rr.overlayFraction {
			overlay += f
		}
		applies := float64(len(rr.apply))
		set("dynsumd.apply_self_ms_p50", ms(pctDur(applySelf, 0.5)))
		set("delta.decode_us_p50", us(pctDur(rr.decode, 0.5)))
		set("delta.apply_ms_p50", ms(pctDur(rr.apply, 0.5)))
		set("delta.apply_ms_p90", ms(pctDur(rr.apply, 0.9)))
		set("delta.payload_kb_per_apply", float64(rr.payloadBytes)/1000/applies)
		set("delta.invalidated_per_apply", float64(rr.invalidated)/applies)
		set("delta.overlay_fraction", overlay/applies)
	}

	var spans []span
	for _, s := range hr.spans {
		spans = append(spans, s...)
	}
	spans = append(spans, rr.spans...)
	if err := writeSpans(filepath.Join(work, "spans.jsonl"), spans); err != nil {
		return nil, err
	}
	return hr, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
