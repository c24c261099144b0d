package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dynsum/internal/faultinject"
	"dynsum/internal/persist"
)

// The serve chaos sweep: inject a panic at each serving-layer fault
// point — admission, dispatch, session apply, drain persistence — while
// a verified load runs, and assert the blast radius every time:
//
//   - the faulted request (or apply, or persist) is refused with a typed
//     *PanicError; nothing else notices;
//   - every admitted answer stays oracle-identical (loadgen Verify);
//   - every session's engine passes CheckIntegrity afterward;
//   - the server drains cleanly with zero goroutine leaks;
//   - a session whose drain-time persistence was faulted is still fully
//     recoverable: the PersistSession retry succeeds and persist.Open
//     round-trips it.
//
// The active faultinject schedule is process-global, so these loops run
// strictly sequentially (no t.Parallel anywhere in the package).

func runChaosCase(t *testing.T, point faultinject.Point, nth int64) {
	t.Helper()
	base := runtime.NumGoroutine()
	ev := testEvolve(t, 3)
	stateDir := t.TempDir()
	srv := newTestServer(t, ev, Config{Workers: 2, QueueDepth: 16, StateDir: stateDir})

	sched := faultinject.NewSchedule()
	sched.Arm(point, nth)
	faultinject.Activate(sched)
	defer faultinject.Deactivate()

	rep, err := RunLoad(context.Background(), srv, ev, LoadConfig{
		Sessions:          8,
		Requests:          6,
		QueriesPerRequest: 2,
		ApplyEvery:        3,
		WarmBias:          0.4,
		Verify:            true,
		Seed:              int64(point)*1000 + nth,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("%v at arrival %d: violation: %v", point, nth, v)
	}
	if rep.Completed == 0 {
		t.Errorf("%v at arrival %d: nothing completed", point, nth)
	}
	fired := sched.Arrivals(point) >= nth
	if fired && point != faultinject.ServeDrain {
		if rep.PanicRefused+rep.ApplyRefused == 0 {
			t.Errorf("%v at arrival %d fired but no typed panic refusal surfaced", point, nth)
		}
	}

	// Every session must still be structurally sound, faulted or not.
	for _, sess := range srv.Sessions() {
		if err := sess.Engine().CheckIntegrity(); err != nil {
			t.Errorf("%v at arrival %d: session %s integrity: %v", point, nth, sess.ID, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := srv.Drain(ctx)
	var dirty []*Session
	for _, sess := range srv.Sessions() {
		if sess.Epoch() > 0 {
			dirty = append(dirty, sess)
		}
	}
	if point == faultinject.ServeDrain && sched.Arrivals(point) >= nth {
		// The injected drain fault must surface as a typed per-session
		// error, and the session must remain recoverable by retry.
		var pe *PanicError
		if !errors.As(drainErr, &pe) {
			t.Fatalf("drain fault fired but Drain error = %v, want wrapped *PanicError", drainErr)
		}
		faultinject.Deactivate()
		for _, sess := range dirty {
			if err := srv.PersistSession(sess.ID); err != nil {
				t.Fatalf("PersistSession retry for %s: %v", sess.ID, err)
			}
		}
	} else if drainErr != nil {
		t.Fatalf("%v at arrival %d: Drain: %v", point, nth, drainErr)
	}
	faultinject.Deactivate()

	// Every dirty session round-trips through the store it just wrote.
	for _, sess := range dirty {
		st, err := persist.Open(stateDir+"/"+sess.ID, persist.Options{Config: testEngineCfg, Ctxs: srv.Ctxs()})
		if err != nil {
			t.Fatalf("%v at arrival %d: reopen %s: %v", point, nth, sess.ID, err)
		}
		if err := st.Engine().CheckIntegrity(); err != nil {
			t.Errorf("recovered %s: %v", sess.ID, err)
		}
		st.Close()
	}
	goroutineStable(t, base)
}

// TestChaosSweepServePoints is the short deterministic sweep CI runs:
// every serve-layer fault point at a couple of arrival indices.
func TestChaosSweepServePoints(t *testing.T) {
	cases := []struct {
		point faultinject.Point
		nth   []int64
	}{
		{faultinject.ServeAdmit, []int64{1, 7}},
		{faultinject.ServeDispatch, []int64{1, 5}},
		{faultinject.ServeSessionApply, []int64{1, 3}},
		{faultinject.ServeDrain, []int64{1, 2}},
	}
	for _, c := range cases {
		for _, nth := range c.nth {
			t.Run(fmt.Sprintf("%v/arrival-%d", c.point, nth), func(t *testing.T) {
				runChaosCase(t, c.point, nth)
			})
		}
	}
}

// TestChaosKillDuringLoad aborts a drain mid-load (tight deadline while
// traffic still flows): every caller outcome stays typed, and every
// session — even ones whose last apply raced the drain — is integral and
// persistable afterward.
func TestChaosKillDuringLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	ev := testEvolve(t, 3)
	stateDir := t.TempDir()
	srv := newTestServer(t, ev, Config{Workers: 2, QueueDepth: 8, StateDir: stateDir})

	loadDone := make(chan *Report, 1)
	go func() {
		rep, err := RunLoad(context.Background(), srv, ev, LoadConfig{
			Sessions:          8,
			Requests:          20,
			QueriesPerRequest: 2,
			ApplyEvery:        4,
			WarmBias:          0.4,
			Seed:              99,
		})
		if err != nil {
			loadDone <- &Report{Violations: []error{err}}
			return
		}
		loadDone <- rep
	}()
	// Wait until the load has created all its sessions (a drain before
	// that makes RunLoad fail with ErrNotRunning), then drain with a
	// deadline that will expire while requests are still in flight.
	for deadline := time.Now().Add(10 * time.Second); len(srv.Sessions()) < 8; {
		if time.Now().After(deadline) {
			t.Fatalf("load created %d of 8 sessions in 10s", len(srv.Sessions()))
		}
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rep := <-loadDone
	for _, v := range rep.Violations {
		t.Errorf("violation under kill: %v", v)
	}
	for _, sess := range srv.Sessions() {
		if err := sess.Engine().CheckIntegrity(); err != nil {
			t.Errorf("session %s integrity after kill: %v", sess.ID, err)
		}
		if sess.Epoch() > 0 {
			st, err := persist.Open(stateDir+"/"+sess.ID, persist.Options{Config: testEngineCfg, Ctxs: srv.Ctxs()})
			if err != nil {
				t.Fatalf("reopen %s after kill: %v", sess.ID, err)
			}
			if err := st.Engine().CheckIntegrity(); err != nil {
				t.Errorf("recovered %s after kill: %v", sess.ID, err)
			}
			st.Close()
		}
	}
	goroutineStable(t, base)
}
