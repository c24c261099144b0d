// Package dynsum reproduces "On-Demand Dynamic Summary-based Points-to
// Analysis" (Shang, Xie, Xue; CGO 2012) as a Go library: context-sensitive
// demand-driven points-to analysis over Pointer Assignment Graphs, with
// the paper's DYNSUM engine (dynamic PPTA summaries) plus the three
// comparison engines (NOREFINE, REFINEPTS, STASUM), the three evaluation
// clients (SafeCast, NullDeref, FactoryM), a MiniJava frontend, a
// calibrated synthetic benchmark generator, and the experiment harness
// that regenerates every table and figure of the paper's evaluation.
//
// This root package is a facade over the internal packages; see README.md
// for the architecture and DESIGN.md for the paper-to-module map.
//
// A minimal session:
//
//	prog, info, err := dynsum.CompileMiniJava("demo", src)
//	engine := dynsum.NewDynSum(prog.G, dynsum.Config{})
//	pts, err := engine.PointsTo(info.Var("Main.main.x"))
//	fmt.Println(pts.FormatObjects(prog.G))
//
// engine.Query asks one variable in one calling context into a reusable
// set (a warm query allocates nothing); BatchPointsTo fans a batch out
// over a worker pool sharing one summary cache. Either takes a
// context.Context, which may be nil:
//
//	err = engine.Query(ctx, dst, v, dynsum.EmptyContext)
//	results := dynsum.BatchPointsTo(ctx, engine, vars, 4)
//
// An engine's Config is fixed when it is built. What changes a live
// engine is its mutators, called between queries: program changes arrive
// as delta epochs (engine.NewDeltaLog, then engine.ApplyDelta), and
// engine.Compact, engine.EnableOpenWorld and ApplySpecs act likewise.
package dynsum

import (
	"context"
	"io"

	"dynsum/internal/benchgen"
	"dynsum/internal/clients"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/intstack"
	"dynsum/internal/mj"
	"dynsum/internal/openworld"
	"dynsum/internal/pag"
	"dynsum/internal/persist"
	"dynsum/internal/refine"
	"dynsum/internal/stasum"
)

// Re-exported core types.
type (
	// DynSum is the paper's engine (see NewDynSum); its methods are the
	// engine API.
	DynSum = core.DynSum
	// Config carries engine tunables (budget, stack-depth caps) and the
	// two ablations (DisableCache, DisableCondense); an engine keeps the
	// Config it was built with.
	Config = core.Config
	// Analysis is the common engine interface.
	Analysis = core.Analysis
	// PointsToSet is a set of (object, heap-context) pairs.
	PointsToSet = core.PointsToSet
	// Metrics is the per-engine work counters.
	Metrics = core.Metrics
	// Program is a PAG plus client query-site metadata.
	Program = pag.Program
	// Graph is the Pointer Assignment Graph.
	Graph = pag.Graph
	// Builder constructs PAGs statement by statement.
	Builder = pag.Builder
	// NodeID identifies a PAG node (variable or abstract object).
	NodeID = pag.NodeID
	// Query is one batched points-to request (variable + calling context).
	Query = core.Query
	// Result is the outcome of one batched query.
	Result = core.Result
	// Report is a client run summary.
	Report = clients.Report
	// FrontendInfo exposes the MiniJava symbol tables.
	FrontendInfo = mj.Info
	// DeltaLog records method-granular program changes (added methods,
	// nodes, edges, redefinitions): start one with engine.NewDeltaLog and
	// apply it with engine.ApplyDelta.
	DeltaLog = delta.Log
	// DeltaResult reports what one applied epoch did: overlay statistics
	// plus the summaries invalidated and whether auto-compaction ran.
	DeltaResult = core.DeltaResult
	// RetryPolicy answers a query with escalating budgets: only ErrBudget
	// aborts are retried (ErrDepth is structural, cancellation is the
	// client's decision, panics mean the query is suspect). The zero value
	// gives three attempts at ×4 escalation from the engine's budget.
	RetryPolicy = core.RetryPolicy
	// QueryPanicError is the quarantined form of a panic raised inside one
	// points-to query: the query's scratch state was discarded instead of
	// pooled and its buffered write-backs were dropped, so the engine and
	// its summary cache are exactly as if the query never ran. It carries
	// the panicking variable, context, panic value and stack.
	QueryPanicError = core.QueryPanicError
	// MutatorPanicError is the quarantined form of a panic raised inside an
	// engine mutator (ApplyDelta before its commit point, Compact): the
	// mutation did not happen and the engine is fully usable on its
	// pre-call state. A panic past ApplyDelta's commit point is NOT
	// converted — a half-applied epoch propagates as the original panic.
	MutatorPanicError = core.MutatorPanicError
	// FrozenError is the panic value of a post-freeze graph mutation; it
	// wraps ErrFrozen and names the offending operation and target.
	FrozenError = pag.FrozenError
	// PersistentStore is a program plus engine backed by a durable on-disk snapshot
	// and delta journal (DESIGN.md §13): Append journals each epoch before
	// it is made queryable, Compact rotates snapshot and journal, and Open
	// recovers the exact durable epoch after a crash.
	PersistentStore = persist.Store
	// StoreOptions configures a persistent store: engine Config and
	// variants, the journal fsync policy, and an optional shared context
	// table for cross-engine answer comparison.
	StoreOptions = persist.Options
	// CorruptSnapshotError reports fatal snapshot damage: a checksum,
	// framing or range violation inside the snapshot file. The journal is
	// unaffected, but the store cannot open.
	CorruptSnapshotError = persist.CorruptSnapshotError
	// CorruptJournalError reports fatal mid-journal damage: a record that
	// is fully present but fails its CRC (or replays inconsistently). A
	// merely torn final record is NOT this error — it is truncated silently
	// and the store opens at the preceding epoch.
	CorruptJournalError = persist.CorruptJournalError

	// Identifier and edge types re-exported so DeltaLog entries can be
	// constructed against the facade alone.
	MethodID   = pag.MethodID
	ClassID    = pag.ClassID
	CallSiteID = pag.CallSiteID
	FieldID    = pag.FieldID
	NodeKind   = pag.NodeKind
	EdgeKind   = pag.EdgeKind
	Edge       = pag.Edge
	CallSite   = pag.CallSite
)

// Node-kind and edge-kind constants, re-exported for DeltaLog users.
const (
	Local  = pag.Local
	Global = pag.Global
	Object = pag.Object

	New          = pag.New
	Assign       = pag.Assign
	Load         = pag.Load
	Store        = pag.Store
	AssignGlobal = pag.AssignGlobal
	Entry        = pag.Entry
	Exit         = pag.Exit

	// NoLabel is the Label of unlabelled edge kinds.
	NoLabel = pag.NoLabel
)

// Sentinel "none" identifiers, re-exported for DeltaLog users.
const (
	NoNode     = pag.NoNode
	NoMethod   = pag.NoMethod
	NoClass    = pag.NoClass
	NoField    = pag.NoField
	NoCallSite = pag.NoCallSite
)

// Errors and defaults re-exported from the kernel. The taxonomy has two
// classes (DESIGN.md §12):
//
//   - Partial aborts (ErrBudget, ErrDepth, ErrCanceled; IsPartial returns
//     true): the traversal stopped cooperatively at a step boundary. The
//     points-to set accumulated so far is a sound under-approximation —
//     everything in it is a real may-point-to fact — and the client must
//     answer conservatively. The engine and cache are fully intact.
//   - Quarantined panics (*QueryPanicError, *MutatorPanicError): the
//     operation was interrupted mid-step; its partial state was discarded,
//     never pooled or committed, so the engine remains byte-identical to
//     the state before the call.
//
// Persistence failures follow the same two classes. Recoverable damage —
// a torn snapshot temp file, a torn final journal record, the signature of
// a crash mid-write — is absorbed silently: Open discards the torn bytes
// and recovers the last durable epoch. Fatal damage — a checksum or
// framing violation inside bytes a crash cannot produce — surfaces as a
// typed *CorruptSnapshotError or *CorruptJournalError (match with
// errors.As), or ErrSnapshotVersion for a format-version skew; the store
// refuses to open rather than replay corrupted state.
var (
	// ErrBudget is returned when a query exceeds its traversal budget.
	ErrBudget = core.ErrBudget
	// ErrDepth is returned when a query exceeds a stack-depth cap.
	ErrDepth = core.ErrDepth
	// ErrCanceled is matched (errors.Is) by the error of a query aborted
	// through its context; the error also matches context.Cause(ctx), so
	// context.DeadlineExceeded checks work too.
	ErrCanceled = core.ErrCanceled
	// ErrNotEvolved is returned by Compact on an engine with no overlay.
	ErrNotEvolved = core.ErrNotEvolved
	// ErrFrozen is the sentinel wrapped by every *FrozenError panic.
	ErrFrozen = pag.ErrFrozen
	// ErrSnapshotVersion is matched (errors.Is) by Open's error when the
	// snapshot was written by an incompatible format version.
	ErrSnapshotVersion = persist.ErrSnapshotVersion
)

// IsPartial reports whether err is a partial-abort error (ErrBudget,
// ErrDepth or ErrCanceled) — the class whose partially filled points-to
// set is still a sound under-approximation.
func IsPartial(err error) bool { return core.IsPartial(err) }

// DefaultBudget is the paper's 75,000-edge per-query budget.
const DefaultBudget = core.DefaultBudget

// EmptyContext is the empty initial calling context: engine.Query with it
// asks the usual whole-program question, the one PointsTo answers.
const EmptyContext = intstack.Empty

// NewBuilder returns a PAG builder over a fresh graph; Finish validates
// and freezes it for the engines.
func NewBuilder() *Builder { return pag.NewBuilder() }

// NewPointsToSet returns an empty points-to set, for reuse across queries
// through the engine's allocation-free Query path.
func NewPointsToSet() *PointsToSet { return core.NewPointsToSet() }

// NewDynSum builds the paper's engine: demand-driven points-to analysis
// with dynamic, context-independent PPTA summaries (Algorithms 3 and 4).
// g must be frozen (Builder.Finish, or any program the frontend, the
// generator or the decoder returns); an unfrozen graph panics.
func NewDynSum(g *Graph, cfg Config) *DynSum { return core.NewDynSum(g, cfg, nil) }

// NewNoRefine builds the NOREFINE baseline: fully field-sensitive
// demand-driven analysis without refinement or caching.
func NewNoRefine(g *Graph, cfg Config) Analysis { return refine.NewNoRefine(g, cfg, nil) }

// NewRefinePts builds REFINEPTS (Sridharan–Bodík PLDI'06): match-edge
// refinement with client-driven early termination.
func NewRefinePts(g *Graph, cfg Config) *refine.Engine { return refine.NewRefinePts(g, cfg, nil) }

// NewStaSum builds STASUM (Yan et al. ISSTA'11 style): offline symbolic
// summaries for every method, reused at query time.
func NewStaSum(g *Graph, cfg Config) *stasum.Engine { return stasum.New(g, cfg, nil) }

// CompileMiniJava compiles MiniJava source to a Program (see internal/mj
// for the language); the returned info maps qualified names to PAG nodes.
func CompileMiniJava(name, src string) (*Program, *FrontendInfo, error) {
	return mj.Compile(name, src)
}

// LoadPAG reads a Program in the textual PAG format.
func LoadPAG(r io.Reader) (*Program, error) { return pag.Decode(r) }

// SavePAG writes a Program in the textual PAG format.
func SavePAG(w io.Writer, p *Program) error { return pag.Encode(w, p) }

// Save persists prog (which must be frozen) as a fresh store in dir — a
// durable epoch-0 snapshot plus an empty journal — and closes it. Use
// OpenStore to resume, or CreateStore to keep the store live for appends.
func Save(dir string, prog *Program) error {
	st, err := persist.Create(dir, prog, StoreOptions{})
	if err != nil {
		return err
	}
	return st.Close()
}

// CreateStore initialises a persistent store in dir from a frozen program
// and returns it live: Engine() serves queries, Append journals delta
// epochs durably before applying them, Compact rotates the snapshot.
func CreateStore(dir string, prog *Program, opts StoreOptions) (*PersistentStore, error) {
	return persist.Create(dir, prog, opts)
}

// OpenStore recovers the store in dir: the snapshot is loaded with every
// checksum verified, the journal is replayed epoch by epoch through the
// engine's delta machinery, and the result is validated structurally
// before the store is returned. A torn journal tail (crash mid-append) is
// truncated silently; real corruption fails with a typed error (see the
// error-taxonomy block above).
func OpenStore(dir string, opts StoreOptions) (*PersistentStore, error) {
	return persist.Open(dir, opts)
}

// BatchPointsTo answers whole-program points-to queries for vars on
// engine, fanned out across workers goroutines sharing its summary cache
// (workers <= 0 selects GOMAXPROCS), positionally aligned with vars. ctx
// may be nil; once it is done, the remaining queries end with
// ErrCanceled and the call returns promptly. Completed queries match
// PointsTo; near the budget boundary, which queries fail can differ from
// a serial run. For per-query calling contexts, call
// engine.BatchPointsToCtx.
func BatchPointsTo(ctx context.Context, engine *DynSum, vars []NodeID, workers int) []Result {
	queries := make([]Query, len(vars))
	for i, v := range vars {
		queries[i] = Query{Var: v, Ctx: intstack.Empty}
	}
	return engine.BatchPointsToCtx(ctx, queries, workers)
}

// RunClient runs one of the paper's clients ("SafeCast", "NullDeref",
// "FactoryM") over prog with engine a. workers == 1 asks one query at a
// time; otherwise DYNSUM fans the queries out across workers goroutines
// (<= 0: GOMAXPROCS), and the other engines still run serially.
func RunClient(client string, prog *Program, a Analysis, workers int) (*Report, error) {
	return clients.Run(client, prog, a, workers)
}

// Clients lists the three client names in paper order.
func Clients() []string { return clients.Names() }

// GenerateBenchmark builds one of the nine synthetic Table 3 benchmarks at
// the given scale (1.0 = paper-sized) and seed.
func GenerateBenchmark(name string, scale float64, seed int64) (*Program, error) {
	p, ok := benchgen.ProfileByName(name)
	if !ok {
		return nil, errUnknownBenchmark(name)
	}
	return benchgen.Generate(p.Scaled(scale), seed), nil
}

// BenchmarkNames lists the nine Table 3 benchmarks.
func BenchmarkNames() []string {
	out := make([]string, len(benchgen.Profiles))
	for i, p := range benchgen.Profiles {
		out[i] = p.Name
	}
	return out
}

type errUnknownBenchmark string

func (e errUnknownBenchmark) Error() string { return "dynsum: unknown benchmark " + string(e) }

// Open-world analysis (DESIGN.md §15): sound answers on programs with
// missing method bodies. Mark the missing methods bodyless on the builder
// (or use the MiniJava 'native' keyword), call engine.EnableOpenWorld (each
// bodyless method is then answered by its blended summary: its blob object
// plus a ⊤-frontier over its boundary), and optionally install a spec file
// describing the missing code's points-to effects.
type (
	// SpecFile is a parsed library points-to spec (one flow per line; see
	// ParseSpecs).
	SpecFile = openworld.File
	// SpecParseError reports malformed spec text with its 1-based line.
	SpecParseError = openworld.ParseError
	// SpecResolveError reports a spec that does not fit the target graph
	// (unknown method, arity mismatch, method not marked bodyless, ...).
	SpecResolveError = openworld.ResolveError
	// ResolvedSpecs is a spec file lowered onto a graph: PAG edges plus the
	// methods they cover, ready for ApplySpecs.
	ResolvedSpecs = openworld.Resolved
	// BodylessInfo records the boundary interface (formals, return, blob
	// nodes) of one bodyless method.
	BodylessInfo = pag.BodylessInfo
)

// ErrOpenWorldDisabled is returned by ApplySpecs before
// engine.EnableOpenWorld.
var ErrOpenWorldDisabled = core.ErrOpenWorldDisabled

// ParseSpecs parses library points-to spec text. The format is one method
// block per paragraph:
//
//	method Vector.get
//	  ret <- this.Vector.elems
//
//	method Vector.add
//	  this.Vector.elems <- arg1
//
// Field names must match the graph's interned spelling (the MiniJava
// frontend qualifies them as Class.field), and arg0 is the receiver —
// the first explicit parameter is arg1. Malformed input yields a
// *SpecParseError; the parser never panics.
func ParseSpecs(text string) (*SpecFile, error) { return openworld.Parse(text) }

// ResolveSpecs lowers a parsed spec file onto g: every spec'd method must
// be marked bodyless, and each flow line becomes PAG edges over the
// method's recorded boundary interface. Hand the result to ApplySpecs.
func ResolveSpecs(g *Graph, f *SpecFile) (*ResolvedSpecs, error) { return openworld.Resolve(g, f) }

// ApplySpecs installs resolved specs on an open-world engine through its
// delta machinery: the lowered edges arrive as one epoch and the exactly
// spec'd methods leave blended treatment. Queries keep exact answers for
// spec'd methods and blob-conservative ones for the rest.
func ApplySpecs(engine *DynSum, specs *ResolvedSpecs) (DeltaResult, error) {
	return engine.ApplySpecs(specs.Edges, specs.Exact)
}
