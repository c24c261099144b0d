package core

import (
	"context"
	"errors"
	"time"

	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// RetryPolicy answers a query with escalating budgets, for clients that
// prefer eventual precision over the immediate conservative answer a
// budget abort forces. The paper's fixed 75,000-step budget (§5.2) is a
// compromise: most queries finish far under it, a few whales need far
// more. A policy retries exactly the whales — only ErrBudget aborts are
// retried; ErrDepth is structural (a bigger budget re-hits the same
// cap), cancellation is the client's own decision, and panics mean the
// query itself is suspect.
//
// The zero value is usable: three attempts, the engine's configured
// budget, ×4 escalation, no backoff.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// 0 means the default, 3.
	MaxAttempts int
	// Budget is the first attempt's traversal budget. 0 means the
	// engine's configured budget.
	Budget int
	// BudgetScale multiplies the budget between attempts. 0 means the
	// default, 4; 1 retries at constant budget (useful only with a
	// warming cache, where a re-run genuinely gets further).
	BudgetScale int
	// Backoff, when positive, is slept between attempts (context-aware:
	// a cancellation during the sleep aborts with ErrCanceled). Retries
	// against a shared engine under load benefit from yielding; the
	// default is no sleep.
	Backoff time.Duration
}

func (p RetryPolicy) withDefaults(d *DynSum) RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Budget <= 0 {
		p.Budget = d.cfg.Budget
	}
	if p.BudgetScale <= 0 {
		p.BudgetScale = 4
	}
	return p
}

// Query answers DynSum.Query under the policy: attempts run with budgets
// Budget, Budget×Scale, Budget×Scale², … until one completes, attempts
// run out, or a non-budget error appears. ctx may be nil, and dst is
// caller-owned exactly as for DynSum.Query. attempts reports how many
// runs executed; on error dst holds the last attempt's partial set.
func (p RetryPolicy) Query(ctx context.Context, d *DynSum, dst *PointsToSet, v pag.NodeID, cc intstack.ID) (attempts int, err error) {
	p = p.withDefaults(d)
	budget := p.Budget
	for attempt := 1; ; attempt++ {
		err = d.pointsToInto(ctx, dst, v, cc, budget)
		if err == nil || attempt >= p.MaxAttempts || !errors.Is(err, ErrBudget) {
			return attempt, err
		}
		if p.Backoff > 0 {
			if serr := sleepCtx(ctx, p.Backoff); serr != nil {
				return attempt, serr
			}
		}
		budget *= p.BudgetScale
	}
}

// sleepCtx sleeps d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return wrapCanceled(ctx)
	}
}
