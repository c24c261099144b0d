// Command dynsumd serves on-demand points-to queries over HTTP: the
// overload-safe multi-tenant daemon built on internal/serve (DESIGN.md
// §14). Each session holds a private delta overlay over one shared
// frozen base program; admission is bounded and shed with typed errors
// mapped to HTTP statuses, per-tenant token buckets throttle abusive
// clients, and SIGTERM drains gracefully — in-flight work finishes
// under a deadline, dirty sessions persist to -state-dir, and the
// process exits 0.
//
// With -state-dir, each session is a persist.Store in a subdirectory
// named by its ID: the store journals every applied delta (no fsync
// per apply) and a persist adds the epoch-0 base snapshot and syncs the
// journal. A session directory is reopenable with persist.Open only from
// the session's first persist onwards.
//
// Usage:
//
//	dynsumd -addr :7457 prog.pag                # serve a compiled PAG
//	dynsumd -bench soot-c -scale 0.01           # serve a synthetic benchmark
//	dynsumd -state-dir /var/lib/dynsumd ...     # journal deltas, persist sessions on drain
//	dynsumd -debug-addr localhost:6060 ...      # also serve net/http/pprof there
//
// Endpoints:
//
//	POST /v1/sessions  {"id":"s1","tenant":"team-a"}
//	POST /v1/query     {"session":"s1","vars":[3,17],"deadline_ms":50}
//	POST /v1/apply     {"session":"s1","delta_b64":"<wire-encoded delta.Log>"}
//	GET  /healthz      liveness (200 while the process runs)
//	GET  /readyz       readiness (503 once draining)
//	GET  /metrics      JSON: serve counters, engine metrics summed over sessions, summary storage,
//	                   overlay and journal bytes
//
// With -debug-addr, a second listener serves the net/http/pprof profiles
// under /debug/pprof/. It is off by default and never shares the query
// listener's mux, so profiles are reachable only where the operator
// chose to bind them.
package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/mj"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
	"dynsum/internal/persist/journal"
	"dynsum/internal/serve"
)

// maxBodyBytes bounds every POST body. The largest legitimate request is
// an apply whose delta fills one journal record — a persisted session
// journals each applied delta as one record of at most MaxRecordLen bytes,
// so a bigger delta could never be made durable — base64-encoded (4 bytes
// per 3) inside a small JSON envelope. Larger bodies are refused with 413
// before they are buffered.
const maxBodyBytes = (journal.MaxRecordLen+2)/3*4 + bodyEnvelopeBytes

// bodyEnvelopeBytes is the allowance for a request's JSON field names,
// session and tenant IDs, and variable lists around the payload.
const bodyEnvelopeBytes = 64 << 10

func main() {
	var (
		addr         = flag.String("addr", ":7457", "listen address")
		bench        = flag.String("bench", "", "serve a synthetic benchmark profile (e.g. soot-c) instead of a program file")
		scale        = flag.Float64("scale", 0.01, "benchmark scale factor (with -bench)")
		seed         = flag.Int64("seed", 7, "benchmark generator seed (with -bench)")
		budget       = flag.Int("budget", core.DefaultBudget, "per-query traversal budget")
		workers      = flag.Int("workers", 0, "worker goroutines per lane (0 = default)")
		queueDepth   = flag.Int("queue", 0, "admission queue depth per lane (0 = default)")
		deadline     = flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
		quotaRate    = flag.Float64("quota-rate", 0, "per-tenant requests/sec refill (0 = no quotas)")
		quotaBurst   = flag.Float64("quota-burst", 0, "per-tenant burst size")
		stateDir     = flag.String("state-dir", "", "keep each session's store here: deltas journaled as they apply, the base snapshot added when the session persists (on drain)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM/SIGINT")
		openWorld    = flag.Bool("openworld", false, "serve bodyless methods under blended blob summaries instead of silently under-approximating")
		specFile     = flag.String("specs", "", "library points-to spec file, resolved once at startup and applied to every session (implies -openworld)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this separate listen address (off when empty)")
	)
	flag.Parse()

	prog, err := loadBase(*bench, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsumd:", err)
		os.Exit(1)
	}
	prepare, err := openWorldPrepare(prog, *openWorld || *specFile != "", *specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsumd:", err)
		os.Exit(1)
	}
	srv, err := serve.NewServer(prog, serve.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *deadline,
		Quota:           serve.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
		StateDir:        *stateDir,
		Engine:          core.Config{Budget: *budget},
		Prepare:         prepare,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynsumd:", err)
		os.Exit(1)
	}

	// Catch signals before serving: once /readyz answers, a SIGTERM must
	// drain, not kill the process with the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	httpSrv := &http.Server{Addr: *addr, Handler: newHandler(srv, maxBodyBytes)}
	errCh := make(chan error, 1)
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynsumd: debug listener:", err)
			os.Exit(1)
		}
		debugSrv := &http.Server{Handler: newDebugHandler()}
		defer debugSrv.Close()
		go func() { errCh <- debugSrv.Serve(ln) }()
		fmt.Fprintf(os.Stderr, "dynsumd: pprof on %s\n", ln.Addr())
	}
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dynsumd: serving on %s (%d nodes)\n", *addr, prog.G.NumNodes())

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "dynsumd:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "dynsumd: %v, draining (timeout %s)\n", s, *drainTimeout)
	}

	// Stop accepting HTTP first, then drain the serving core: admitted
	// work completes (or is cancelled at the drain deadline) and dirty
	// sessions are persisted before the process exits 0.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dynsumd: drain:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "dynsumd: drained")
}

// openWorldPrepare resolves the spec file once at startup and returns the
// per-session engine hook: every session enables the blended open-world
// model for bodyless methods and — when specs were given — has the lowered
// spec edges applied before serving its first query, so the resolution
// cost is paid once and session creation stays cheap.
func openWorldPrepare(prog *pag.Program, enabled bool, specPath string) (func(*core.DynSum) error, error) {
	if !enabled {
		if prog.G.NumBodyless() > 0 {
			fmt.Fprintf(os.Stderr, "dynsumd: warning: %d bodyless methods served without -openworld; their effects are ignored\n",
				prog.G.NumBodyless())
		}
		return nil, nil
	}
	var resolved *openworld.Resolved
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		f, err := openworld.Parse(string(data))
		if err != nil {
			return nil, err
		}
		resolved, err = openworld.Resolve(prog.G, f)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "dynsumd: specs %s: %d exact methods (%d edges), %d blended; %d bodyless total\n",
			specPath, len(resolved.Exact), len(resolved.Edges), len(resolved.Blended), prog.G.NumBodyless())
	} else {
		fmt.Fprintf(os.Stderr, "dynsumd: open-world: %d bodyless methods under blended summaries\n", prog.G.NumBodyless())
	}
	return func(d *core.DynSum) error {
		d.EnableOpenWorld()
		if resolved != nil {
			if _, err := d.ApplySpecs(resolved.Edges, resolved.Exact); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// loadBase builds the frozen base program: a synthetic benchmark when
// -bench is set, otherwise the .mj or .pag file on the command line.
func loadBase(bench string, scale float64, seed int64) (*pag.Program, error) {
	if bench != "" {
		p, ok := benchgen.ProfileByName(bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark profile %q", bench)
		}
		return benchgen.Generate(p.Scaled(scale), seed), nil
	}
	if flag.NArg() != 1 {
		return nil, errors.New("pass a program file (.mj or .pag) or -bench")
	}
	return readProgram(flag.Arg(0))
}

// readProgram compiles a .mj file, or streams any other file through
// pag.Decode, which keeps no copy of its input.
func readProgram(path string) (*pag.Program, error) {
	if strings.HasSuffix(path, ".mj") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		prog, _, err := mj.Compile(path, string(data))
		return prog, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pag.Decode(f)
}

// newHandler routes the daemon's endpoints to srv, refusing POST bodies
// over maxBody bytes.
func newHandler(srv *serve.Server, maxBody int64) http.Handler {
	mux := http.NewServeMux()
	d := &daemon{srv: srv, maxBody: maxBody}
	mux.HandleFunc("POST /v1/sessions", d.handleCreateSession)
	mux.HandleFunc("POST /v1/query", d.handleQuery)
	mux.HandleFunc("POST /v1/apply", d.handleApply)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !srv.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(srv.MetricsSnapshot())
	})
	return mux
}

// newDebugHandler serves the net/http/pprof endpoints for the -debug-addr
// listener. Importing net/http/pprof also registers them on
// http.DefaultServeMux, which the daemon never serves.
func newDebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

type daemon struct {
	srv     *serve.Server
	maxBody int64
}

// decode reads r's JSON body into v through a maxBody limit. On failure
// it has already answered: 413 (typed "too-large") for an oversized body,
// 400 with msg (or the decoder's message when msg is empty) otherwise.
func (d *daemon) decode(w http.ResponseWriter, r *http.Request, v any, msg string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, d.maxBody)).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeTypedError(w, err)
		return false
	}
	if msg == "" {
		msg = err.Error()
	}
	http.Error(w, msg, http.StatusBadRequest)
	return false
}

type queryResult struct {
	Var     int64   `json:"var"`
	Objects []int64 `json:"objects,omitempty"`
	Partial bool    `json:"partial,omitempty"`
	Err     string  `json:"err,omitempty"`
}

func (d *daemon) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID     string `json:"id"`
		Tenant string `json:"tenant"`
	}
	const usage = "body must be {\"id\":..., \"tenant\":...}"
	if !d.decode(w, r, &req, usage) {
		return
	}
	if req.ID == "" {
		http.Error(w, usage, http.StatusBadRequest)
		return
	}
	if _, err := d.srv.CreateSession(req.ID, req.Tenant); err != nil {
		writeTypedError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (d *daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session    string  `json:"session"`
		Vars       []int64 `json:"vars"`
		DeadlineMS int64   `json:"deadline_ms"`
	}
	if !d.decode(w, r, &req, "") {
		return
	}
	queries := make([]core.Query, len(req.Vars))
	for i, v := range req.Vars {
		// Node IDs are int32: refuse what would truncate to another node.
		if v < math.MinInt32 || v > math.MaxInt32 {
			writeTypedError(w, &serve.BadQueryError{Var: v, Limit: math.MaxInt32 + 1})
			return
		}
		queries[i] = core.Query{Var: pag.NodeID(v)}
	}
	resp, err := d.srv.Do(r.Context(), serve.Request{
		Session:  req.Session,
		Queries:  queries,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
	})
	if err != nil {
		writeTypedError(w, err)
		return
	}
	out := struct {
		Lane     string        `json:"lane"`
		QueuedNS int64         `json:"queued_ns"`
		RanNS    int64         `json:"ran_ns"`
		Results  []queryResult `json:"results"`
	}{Lane: resp.Lane.String(), QueuedNS: resp.Queued.Nanoseconds(), RanNS: resp.Ran.Nanoseconds()}
	for _, res := range resp.Results {
		qr := queryResult{Var: int64(res.Var), Partial: res.Partial}
		if res.Err != nil {
			qr.Err = res.Err.Error()
		}
		if res.Pts != nil {
			for _, obj := range res.Pts.Objects() {
				qr.Objects = append(qr.Objects, int64(obj))
			}
		}
		out.Results = append(out.Results, qr)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (d *daemon) handleApply(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session  string `json:"session"`
		DeltaB64 string `json:"delta_b64"`
	}
	if !d.decode(w, r, &req, "") {
		return
	}
	raw, err := base64.StdEncoding.DecodeString(req.DeltaB64)
	if err != nil {
		http.Error(w, "delta_b64: "+err.Error(), http.StatusBadRequest)
		return
	}
	log, err := delta.DecodeLog(raw)
	if err != nil {
		http.Error(w, "delta: "+err.Error(), http.StatusBadRequest)
		return
	}
	res, err := d.srv.Apply(r.Context(), req.Session, log)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// writeTypedError maps the serve error taxonomy onto HTTP statuses, so
// clients can tell shed (retry elsewhere) from quota (back off) from
// expiry (tighten deadlines) from a variable the session does not have
// (fix the request) without parsing strings. An oversized body
// (*http.MaxBytesError) answers 413 in the same shape.
func writeTypedError(w http.ResponseWriter, err error) {
	var (
		mbe *http.MaxBytesError
		oe  *serve.OverloadError
		qe  *serve.QuotaError
		ee  *serve.ExpiredError
		ue  *serve.UnknownSessionError
		bq  *serve.BadQueryError
		de  *serve.DuplicateSessionError
		pe  *serve.PanicError
	)
	status := http.StatusInternalServerError
	kind := "internal"
	switch {
	case errors.As(err, &mbe):
		status, kind = http.StatusRequestEntityTooLarge, "too-large"
	case errors.As(err, &oe):
		status, kind = http.StatusServiceUnavailable, "overload"
	case errors.As(err, &qe):
		status, kind = http.StatusTooManyRequests, "quota"
		w.Header().Set("Retry-After", fmt.Sprintf("%.3f", qe.RetryAfter.Seconds()))
	case errors.As(err, &ee):
		status, kind = http.StatusGatewayTimeout, "expired"
	case errors.As(err, &ue):
		status, kind = http.StatusNotFound, "unknown-session"
	case errors.As(err, &bq):
		status, kind = http.StatusBadRequest, "bad-query"
	case errors.As(err, &de):
		status, kind = http.StatusConflict, "duplicate-session"
	case errors.As(err, &pe):
		status, kind = http.StatusInternalServerError, "panic"
	case errors.Is(err, serve.ErrNotRunning):
		status, kind = http.StatusServiceUnavailable, "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"kind": kind, "error": err.Error()})
}
