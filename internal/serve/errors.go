package serve

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// The serve layer's error taxonomy is small, closed, and — like the
// engine's (DESIGN.md §12) — split into two classes by the reaction they
// demand (DESIGN.md §14):
//
//   - back off and retry: *OverloadError (queue full, or the server is
//     draining), *QuotaError (tenant bucket empty), *ExpiredError (the
//     request's deadline passed before it ran). The server is healthy;
//     the request was refused to keep it that way. Nothing was partially
//     executed.
//   - caller or operator bug: *UnknownSessionError (bad session ID),
//     *BadQueryError (a variable the session's program does not have),
//     *PanicError (a panic crossed a serve-layer boundary; the engine's
//     own quarantine already contained it, the wrapper records where).
//
// Every refused request carries exactly one of these — the overload
// tests assert there is no third, untyped way to be turned away.

// ErrNotRunning is reported by lifecycle operations (Drain on an
// already-draining server, admission after close) that need no richer
// context than "the server is past that state".
var ErrNotRunning = errors.New("serve: server is not running")

// OverloadError is the shed signal: the request was refused at admission
// because its lane's bounded queue is full, or because the server is
// draining and admits nothing new. The queue numbers are a point-in-time
// observation for operator logs; clients should back off and retry.
type OverloadError struct {
	Lane     Lane
	QueueLen int
	QueueCap int
	Draining bool
}

func (e *OverloadError) Error() string {
	if e.Draining {
		return "serve: overloaded: server is draining, admission closed"
	}
	return fmt.Sprintf("serve: overloaded: %s lane queue full (%d/%d)", e.Lane, e.QueueLen, e.QueueCap)
}

// QuotaError reports an admission refused by the tenant's token bucket.
// RetryAfter estimates when one token will have refilled.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("serve: tenant %q over quota (retry after %v)", e.Tenant, e.RetryAfter)
}

// ExpiredError reports a request whose deadline passed while it was
// still queued (or before its worker picked it up): it was admitted but
// never traversed an edge. Waited is how long it sat in the queue.
type ExpiredError struct {
	Lane   Lane
	Waited time.Duration
}

func (e *ExpiredError) Error() string {
	return fmt.Sprintf("serve: deadline expired after %v queued in %s lane", e.Waited, e.Lane)
}

// UnknownSessionError reports a request naming a session the registry
// does not hold.
type UnknownSessionError struct{ ID string }

func (e *UnknownSessionError) Error() string {
	return fmt.Sprintf("serve: unknown session %q", e.ID)
}

// BadQueryError reports a request naming a variable outside [0, Limit).
// The serving core sets Limit to the session's node count — the base
// graph's plus every node the session's applied deltas added — so an ID
// that a later apply introduces is refused before that apply and served
// after it. Nothing of the request ran.
type BadQueryError struct {
	Var   int64
	Limit int64
}

func (e *BadQueryError) Error() string {
	return fmt.Sprintf("serve: query variable %d outside [0, %d)", e.Var, e.Limit)
}

// DuplicateSessionError reports CreateSession with an ID already in use.
type DuplicateSessionError struct{ ID string }

func (e *DuplicateSessionError) Error() string {
	return fmt.Sprintf("serve: session %q already exists", e.ID)
}

// PanicError reports a panic recovered at a serve-layer boundary
// (admission, dispatch, session apply, drain persistence). Value is the
// original panic value — exposed to errors.As/Is when it is itself an
// error, e.g. an injected *faultinject.Fault — and Stack the goroutine
// stack captured at recovery. The engine-level quarantine guarantees
// (DESIGN.md §12) already hold by the time this wrapper exists; it adds
// which serving stage the panic crossed, so one quarantined slot is
// attributable without correlating logs.
type PanicError struct {
	Stage string // "admit", "dispatch", "run", "apply", "drain"
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: panic at %s boundary: %v", e.Stage, e.Value)
}

// Unwrap exposes panic values that are themselves errors.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

func newPanicError(stage string, value any) *PanicError {
	return &PanicError{Stage: stage, Value: value, Stack: debug.Stack()}
}
