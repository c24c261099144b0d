package serve

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestLoadOracleFidelity is the flagship serving proof: many concurrent
// sessions replay evolve waves and mixed warm/cold query traffic through
// the full admission pipeline, and every admitted answer is checked
// byte-identical against a direct-engine oracle built over the same wave
// prefix. Zero protocol violations, zero goroutine leaks, and the
// post-load drain persists every dirty session.
func TestLoadOracleFidelity(t *testing.T) {
	base := runtime.NumGoroutine()
	ev := testEvolve(t, 4)
	srv := newTestServer(t, ev, Config{Workers: 2, QueueDepth: 64, StateDir: t.TempDir()})

	rep, err := RunLoad(context.Background(), srv, ev, LoadConfig{
		Sessions:          16,
		Requests:          12,
		QueriesPerRequest: 3,
		ApplyEvery:        4,
		WarmBias:          0.5,
		Tenants:           []string{"alpha", "beta", "gamma"},
		Verify:            true,
		Seed:              42,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %v", v)
	}
	if rep.Issued != 16*12 {
		t.Errorf("issued %d requests, want %d", rep.Issued, 16*12)
	}
	if rep.Completed == 0 || rep.Verified == 0 {
		t.Fatalf("no verified traffic: completed=%d verified=%d", rep.Completed, rep.Verified)
	}
	t.Logf("load: issued=%d completed=%d shed=%d verified=%d skipped=%d",
		rep.Issued, rep.Completed, rep.Shed, rep.Verified, rep.VerifySkipped)

	// Warm bias must actually produce cheap-lane traffic, or the lane
	// split is vacuous.
	if cheap := rep.Lanes[LaneCheap.String()]; cheap == nil || cheap.Completed == 0 {
		t.Error("no cheap-lane traffic despite warm bias")
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	goroutineStable(t, base)
}

// TestLoadUnderOverloadStaysTyped squeezes the same load through a
// one-worker, two-deep server: a large fraction of requests must be shed
// or expire, every refusal typed, and everything that did complete still
// oracle-identical.
func TestLoadUnderOverloadStaysTyped(t *testing.T) {
	base := runtime.NumGoroutine()
	ev := testEvolve(t, 2)
	cfg, stall := stallUntilRefused(Config{Workers: 1, QueueDepth: 2})
	srv := newTestServer(t, ev, cfg)
	stall(srv)

	rep, err := RunLoad(context.Background(), srv, ev, LoadConfig{
		Sessions:          24,
		Requests:          8,
		QueriesPerRequest: 2,
		Deadline:          250 * time.Millisecond,
		WarmBias:          0.3,
		Verify:            true,
		Seed:              7,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %v", v)
	}
	if rep.Completed == 0 {
		t.Error("overloaded server completed nothing")
	}
	if rep.Shed+rep.Expired == 0 {
		t.Error("2x-capacity load produced no shed/expired refusals; overload path untested")
	}
	if rep.Completed > 0 && rep.Verified == 0 && rep.VerifySkipped == 0 {
		t.Error("completed requests but nothing verified or skipped")
	}
	t.Logf("overload: issued=%d completed=%d shed=%d expired=%d verified=%d",
		rep.Issued, rep.Completed, rep.Shed, rep.Expired, rep.Verified)

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	goroutineStable(t, base)
}
