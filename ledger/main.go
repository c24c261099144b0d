// Command ledger is the repository's end-to-end benchmark of dynsumd.
//
// For each workload it generates a program from the seed, writes it as a
// .pag file, builds ./cmd/dynsumd, launches it on that file, and drives
// it over loopback HTTP with two closed-loop clients. Every answer is
// checked against an in-process oracle. With -trace 1 the HTTP run is
// repeated with spans recorded, and each client's request stream is
// replayed in process to split the request into layers (see README.md).
//
// Run it from the repository root:
//
//	bash ledger/run.sh --workload warm-lookup --seed 7 --seconds 20 --trace 0
//	bash ledger/run.sh -seed 7 -out r.jsonl        # every workload, results appended to r.jsonl
//	bash ledger/run.sh -compare a.jsonl b.jsonl    # check two result sets against BENCHMARK.json
//
// It prints each metric as "workload metric value unit", then one JSON
// line per workload, and exits non-zero if any answer is wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"dynsum/internal/pag"
)

// setupLaunches is how many times setup_s launches the daemon; it
// reports the median.
const setupLaunches = 5

type config struct {
	root     string  // repository checkout holding ./cmd/dynsumd
	work     string  // scratch directory for binaries, programs and spans
	seed     int64   // fixes the program and every request stream
	seconds  float64 // run budget; sets the request count (see workload.rate)
	trace    bool
	scale    float64 // program size relative to the paper's benchmark
	requests int     // per-client timed query requests; 0 derives it from seconds

	cpuProfile, memProfile string
}

// result is one workload run, as -out saves it and -compare reads it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{root: ".", work: ".bench_build/ledger", scale: 1}
	var (
		workload = flag.String("workload", "", "workload to run (default: every workload)")
		trace    = flag.Int("trace", 0, "1 adds the traced run and in-process replay, and reports per-layer metrics")
		out      = flag.String("out", "", "append each run's results to this JSON-lines file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	)
	flag.Int64Var(&cfg.seed, "seed", 7, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "run budget in seconds")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "with -trace 1, write a CPU profile of the in-process replay")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "with -trace 1, write an allocation profile when the in-process replay ends")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		ok, err := compareSets("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	cfg.trace = *trace == 1

	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	allCorrect := true
	for _, name := range names {
		w, ok := workloadByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		res, err := run(cfg, w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		printResult(os.Stdout, res, cfg.trace)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(err)
			}
		}
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ledger:", err)
	os.Exit(1)
}

// run measures one workload: the untraced HTTP run for the end-to-end
// metrics, then — when tracing — a traced repeat of the same streams on a
// fresh daemon and the in-process replay, and finally the answer oracle.
func run(cfg config, w workload) (*result, error) {
	requests := cfg.requests
	if requests == 0 {
		requests = int(math.Round(w.rate * cfg.seconds))
		if cfg.trace {
			// The untraced and traced runs share the budget.
			requests /= 2
		}
	}
	requests = max(requests, 1)
	began := time.Now()
	work := filepath.Join(cfg.work, w.name)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDynsumd(cfg.root, cfg.work)
	if err != nil {
		return nil, err
	}
	inst, err := w.build(cfg.seed, cfg.scale, requests)
	if err != nil {
		return nil, err
	}
	pagPath := filepath.Join(work, "program.pag")
	if err := writeProgram(pagPath, inst.prog); err != nil {
		return nil, err
	}
	stateDir := ""
	if len(inst.payloads) > 0 {
		stateDir = filepath.Join(work, "state")
		defer os.RemoveAll(stateDir)
	}

	res := &result{Workload: w.name, Seed: cfg.seed, Metrics: map[string]metric{}}
	if cfg.trace {
		res.Trace = 1
	}
	set := func(name string, v float64) {
		def, ok := metricByName(name)
		if !ok {
			panic("ledger: unregistered metric " + name)
		}
		res.Metrics[name] = metric{Value: v, Unit: def.unit}
	}
	book := newAnswerBook()

	untraced, err := measureEndToEnd(bin, pagPath, stateDir, inst, book, set)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = tally(inst, untraced).total()
	fmt.Fprintf(os.Stderr, "ledger: %s seed %d: %d timed requests per client, timed phase %.1fs\n",
		w.name, cfg.seed, requests, untraced.phase.Seconds())
	if cfg.trace {
		traced, err := measureLayers(cfg, bin, pagPath, stateDir, work, inst, book, untraced, set)
		if err != nil {
			return nil, err
		}
		a, f := tally(inst, traced).total()
		res.Attempted += a
		res.Failed += f
	}

	wrong, skipped, err := book.verify(inst)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "ledger: %s: oracle skipped %d answers on budget aborts\n", w.name, skipped)
	}
	set("wrong_answers", float64(wrong))
	set("failed_frac", ratio(float64(res.Failed), float64(res.Attempted)))
	res.Correct = wrong == 0
	fmt.Fprintf(os.Stderr, "ledger: %s seed %d: run took %.1fs\n", w.name, cfg.seed, time.Since(began).Seconds())
	return res, nil
}

func writeProgram(path string, prog *pag.Program) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pag.Encode(f, prog); err != nil {
		f.Close()
		return fmt.Errorf("encode program: %w", err)
	}
	return f.Close()
}

// measureEndToEnd launches dynsumd setupLaunches times for setup_s and
// keeps the last launch to serve the timed run.
func measureEndToEnd(bin, pagPath, stateDir string, inst *instance, book *answerBook, set func(string, float64)) (*httpRun, error) {
	if stateDir != "" {
		if err := os.RemoveAll(stateDir); err != nil {
			return nil, err
		}
	}
	var setups []time.Duration
	var d *daemon
	for i := range setupLaunches {
		var setup time.Duration
		var err error
		d, setup, err = startDaemon(bin, pagPath, stateDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if i < setupLaunches-1 {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.kill()

	hr, err := drive(d.url, inst, book, false)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	drain, err := d.stop()
	if err != nil {
		return nil, err
	}

	queries, applies := timedRTTs(inst, hr, opQuery), timedRTTs(inst, hr, opApply)
	t := tally(inst, hr)
	answered := t.vars - t.failedVars
	set("query_p50_ms", ms(pctDur(queries, 0.50)))
	set("query_p99_ms", ms(pctDur(queries, 0.99)))
	set("queries_per_s", ratio(float64(answered), hr.phase.Seconds()))
	set("setup_s", pctDur(setups, 0.5).Seconds())
	set("drain_s", drain.Seconds())
	set("peak_rss_mb", rss)
	if len(applies) > 0 {
		set("apply_p50_ms", ms(pctDur(applies, 0.50)))
		set("apply_p90_ms", ms(pctDur(applies, 0.90)))
	}
	return hr, nil
}

// counts tallies the timed query variables and applies sent, and those
// not answered: a non-2xx reply, a transport error or a per-result error.
type counts struct {
	vars, failedVars       int64
	applies, failedApplies int64
}

func (c counts) total() (attempted, failed int64) {
	return c.vars + c.applies, c.failedVars + c.failedApplies
}

func tally(inst *instance, hr *httpRun) counts {
	var t counts
	for c, ops := range inst.streams {
		for i, o := range ops {
			if o.warm {
				continue
			}
			r := hr.replies[c][i]
			switch o.kind {
			case opQuery:
				t.vars += int64(len(o.vars))
				t.failedVars += int64(r.failed)
			case opApply:
				t.applies++
				if !r.ok {
					t.failedApplies++
				}
			}
		}
	}
	return t
}

// printResult prints every metric as "workload metric value unit", then
// one JSON line with the run's outcome and its end-to-end metrics — or,
// traced, its per-layer ones.
func printResult(w io.Writer, res *result, traced bool) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, def := range metricDefs {
		m, ok := res.Metrics[def.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, def.name, formatValue(m.Value), m.Unit)
		if def.kind == want {
			line.Metrics[def.name] = m
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

func formatValue(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

func appendResult(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles starts the CPU profile, if asked for, and returns the
// function that stops it and writes the allocation profile.
func startProfiles(cfg config) (stop func() error, err error) {
	var cpu *os.File
	if cfg.cpuProfile != "" {
		if cpu, err = os.Create(cfg.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errCPU error
		if cpu != nil {
			pprof.StopCPUProfile()
			errCPU = cpu.Close()
		}
		return errors.Join(errCPU, writeHeap(cfg.memProfile))
	}, nil
}

func writeHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
