package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynsum/internal/benchgen"
	"dynsum/internal/core"
	"dynsum/internal/delta"
	"dynsum/internal/pag"
	"dynsum/internal/persist/journal"
	"dynsum/internal/serve"
)

// testDaemon serves a small synthetic program through the daemon's real
// handler, with a body limit small enough to exceed cheaply.
func testDaemon(t *testing.T, maxBody int64) (*httptest.Server, *pag.Program) {
	t.Helper()
	return testDaemonCfg(t, maxBody, serve.Config{})
}

// testDaemonCfg is testDaemon over a server configured by cfg.
func testDaemonCfg(t *testing.T, maxBody int64, cfg serve.Config) (*httptest.Server, *pag.Program) {
	t.Helper()
	prog := benchgen.Generate(benchgen.ProfileByNameMust("soot-c").Scaled(0.002), 7)
	srv, err := serve.NewServer(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, maxBody))
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return ts, prog
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// typedKind decodes writeTypedError's {"kind", "error"} reply.
func typedKind(t *testing.T, body []byte) string {
	t.Helper()
	var e struct{ Kind, Error string }
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("reply %q is not a typed error: %v", body, err)
	}
	return e.Kind
}

func TestMaxBodyBytesFitsOneJournalRecord(t *testing.T) {
	// The largest apply the journal can hold, base64-encoded, plus the
	// envelope, must fit.
	payload := int64(journal.MaxRecordLen)
	if encoded := (payload + 2) / 3 * 4; maxBodyBytes < encoded+bodyEnvelopeBytes {
		t.Errorf("maxBodyBytes = %d, below a full journal record's %d encoded bytes plus envelope", int64(maxBodyBytes), encoded)
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	ts, _ := testDaemon(t, 1<<10)
	big := `{"session":"s1","delta_b64":"` + strings.Repeat("A", 4<<10) + `"}`
	for _, path := range []string{"/v1/sessions", "/v1/query", "/v1/apply"} {
		status, body := post(t, ts, path, big)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", path, status, body)
			continue
		}
		if kind := typedKind(t, body); kind != "too-large" {
			t.Errorf("%s: kind %q, want too-large", path, kind)
		}
	}
}

func TestMalformedBodyIs400(t *testing.T) {
	ts, _ := testDaemon(t, maxBodyBytes)
	for _, c := range []struct{ path, body string }{
		{"/v1/sessions", `{"id":`},
		{"/v1/sessions", `{"tenant":"t"}`}, // no id
		{"/v1/query", `not json`},
		{"/v1/apply", `{"session":"s1","delta_b64":"!!"}`},
	} {
		if status, body := post(t, ts, c.path, c.body); status != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", c.path, c.body, status, body)
		}
	}
}

func TestUnknownSessionIs404(t *testing.T) {
	ts, _ := testDaemon(t, maxBodyBytes)
	status, body := post(t, ts, "/v1/query", `{"session":"nope","vars":[1]}`)
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%s)", status, body)
	}
	if kind := typedKind(t, body); kind != "unknown-session" {
		t.Errorf("kind %q, want unknown-session", kind)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	ts, prog := testDaemon(t, maxBodyBytes)
	if status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"t"}`); status != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", status, body)
	}
	v := prog.Derefs[0].Var
	status, body := post(t, ts, "/v1/query", `{"session":"s1","vars":[`+strconv.Itoa(int(v))+`]}`)
	if status != http.StatusOK {
		t.Fatalf("query: status %d (%s)", status, body)
	}
	var reply struct {
		Results []queryResult `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Results) != 1 || reply.Results[0].Err != "" || reply.Results[0].Var != int64(v) {
		t.Fatalf("query reply %s", body)
	}
	want, err := core.NewDynSum(prog.G, core.Config{}, nil).PointsTo(v)
	if err != nil {
		t.Fatal(err)
	}
	var wantObjs []int64
	for _, o := range want.Objects() {
		wantObjs = append(wantObjs, int64(o))
	}
	if got := reply.Results[0].Objects; !slices.Equal(got, wantObjs) {
		t.Errorf("pts(%d) over HTTP = %v, in process %v", v, got, wantObjs)
	}
}

// TestOutOfRangeVarIs400: a variable the session's program does not have
// is a typed 400, never a panic (500) and never the answer for another
// node — including an ID that int32 truncation would map onto node 1.
func TestOutOfRangeVarIs400(t *testing.T) {
	ts, prog := testDaemon(t, maxBodyBytes)
	if status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"t"}`); status != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", status, body)
	}
	if prog.G.NumNodes() > 999999999 {
		t.Fatalf("fixture has %d nodes", prog.G.NumNodes())
	}
	for _, v := range []string{"999999999", "-1", "4294967297"} {
		status, body := post(t, ts, "/v1/query", `{"session":"s1","vars":[`+v+`]}`)
		if status != http.StatusBadRequest {
			t.Errorf("var %s: status %d, want 400 (%s)", v, status, body)
			continue
		}
		if kind := typedKind(t, body); kind != "bad-query" {
			t.Errorf("var %s: kind %q, want bad-query", v, kind)
		}
	}
}

// TestOverQuotaIs429: a tenant past its token bucket is refused with 429
// and a Retry-After header, and the refusal is typed "quota".
func TestOverQuotaIs429(t *testing.T) {
	ts, prog := testDaemonCfg(t, maxBodyBytes, serve.Config{Quota: serve.QuotaConfig{Rate: 0.001, Burst: 1}})
	if status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"t"}`); status != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", status, body)
	}
	query := `{"session":"s1","vars":[` + strconv.Itoa(int(prog.Derefs[0].Var)) + `]}`
	if status, body := post(t, ts, "/v1/query", query); status != http.StatusOK {
		t.Fatalf("first query: status %d, want 200 (%s)", status, body)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if kind := typedKind(t, body); kind != "quota" {
		t.Errorf("kind %q, want quota", kind)
	}
	retry, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
	if err != nil || retry <= 0 {
		t.Errorf("Retry-After %q, want a positive number of seconds", resp.Header.Get("Retry-After"))
	}
}

// TestQueryTenantFieldIsNotAQuotaPrincipal: a "tenant" field in a query
// body names no quota principal. Every query is charged to its session's
// tenant, so naming a fresh tenant per request neither escapes the quota
// nor adds tenants to /metrics.
func TestQueryTenantFieldIsNotAQuotaPrincipal(t *testing.T) {
	ts, prog := testDaemonCfg(t, maxBodyBytes, serve.Config{Quota: serve.QuotaConfig{Rate: 0.001, Burst: 1}})
	if status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"t"}`); status != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", status, body)
	}
	v := strconv.Itoa(int(prog.Derefs[0].Var))
	admitted := 0
	for i := range 20 {
		status, body := post(t, ts, "/v1/query", `{"session":"s1","tenant":"x`+strconv.Itoa(i)+`","vars":[`+v+`]}`)
		switch status {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("query %d: status %d (%s)", i, status, body)
		}
	}
	if admitted != 1 {
		t.Errorf("%d of 20 queries admitted under a burst of 1, want 1", admitted)
	}
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d (%s)", status, body)
	}
	var snap serve.MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Tenants) != 1 || snap.Tenants["t"].Admitted != 1 || snap.Tenants["t"].QuotaRejected != 19 {
		t.Errorf("tenants %+v, want only t with 1 admitted and 19 rejected", snap.Tenants)
	}
}

func TestApplyBoundaries(t *testing.T) {
	ts, prog := testDaemon(t, maxBodyBytes)
	if status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"t"}`); status != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", status, body)
	}
	empty := delta.NewLog(prog.G.NumMethods(), prog.G.NumNodes(), prog.G.NumCallSites())
	valid := base64.StdEncoding.EncodeToString(empty.AppendBinary(nil))
	garbage := base64.StdEncoding.EncodeToString([]byte("not a delta log"))
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"bad base64", `{"session":"s1","delta_b64":"@@@="}`, http.StatusBadRequest},
		{"bad delta", `{"session":"s1","delta_b64":"` + garbage + `"}`, http.StatusBadRequest},
		{"unknown session", `{"session":"nope","delta_b64":"` + valid + `"}`, http.StatusNotFound},
		{"valid", `{"session":"s1","delta_b64":"` + valid + `"}`, http.StatusOK},
	} {
		status, body := post(t, ts, "/v1/apply", c.body)
		if status != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, status, c.status, body)
			continue
		}
		if c.status == http.StatusNotFound {
			if kind := typedKind(t, body); kind != "unknown-session" {
				t.Errorf("%s: kind %q, want unknown-session", c.name, kind)
			}
		}
	}
}

func TestDuplicateSessionIs409(t *testing.T) {
	ts, _ := testDaemon(t, maxBodyBytes)
	if status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"t"}`); status != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", status, body)
	}
	status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"other"}`)
	if status != http.StatusConflict {
		t.Fatalf("duplicate session: status %d, want 409 (%s)", status, body)
	}
	if kind := typedKind(t, body); kind != "duplicate-session" {
		t.Errorf("kind %q, want duplicate-session", kind)
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestMetricsIsJSON(t *testing.T) {
	ts, _ := testDaemon(t, maxBodyBytes)
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", status, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics %q do not decode: %v", body, err)
	}
	if len(m) == 0 {
		t.Error("metrics decoded to an empty object")
	}
}

// TestMetricsSummaries: two sessions answering the same query store its
// summaries once in the shared tier while each sees its own copy, which
// /metrics shows as visible entries at twice the tier's count.
func TestMetricsSummaries(t *testing.T) {
	ts, prog := testDaemon(t, maxBodyBytes)
	query := `","vars":[` + strconv.Itoa(int(prog.Derefs[0].Var)) + `]}`
	for _, id := range []string{"s1", "s2"} {
		if status, body := post(t, ts, "/v1/sessions", `{"id":"`+id+`","tenant":"t"}`); status != http.StatusCreated {
			t.Fatalf("create session %s: status %d (%s)", id, status, body)
		}
		if status, body := post(t, ts, "/v1/query", `{"session":"`+id+query); status != http.StatusOK {
			t.Fatalf("query on %s: status %d (%s)", id, status, body)
		}
	}
	_, body := get(t, ts.URL+"/metrics")
	var m struct {
		Summaries map[string]int64 `json:"summaries"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	s := m.Summaries
	for _, k := range []string{"tier_entries", "tier_bytes", "visible", "private"} {
		if _, ok := s[k]; !ok {
			t.Errorf("summaries lacks %q: %v", k, s)
		}
	}
	if s["tier_entries"] == 0 || s["visible"] != 2*s["tier_entries"] || s["private"] != 0 || s["tier_bytes"] <= 0 {
		t.Errorf("summaries %v, want a non-empty tier seen twice over and nothing private", s)
	}
}

func TestReadyzAfterDrainIs503(t *testing.T) {
	prog := benchgen.Generate(benchgen.ProfileByNameMust("soot-c").Scaled(0.002), 7)
	srv, err := serve.NewServer(prog, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, maxBodyBytes))
	defer ts.Close()
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz before drain: status %d (%s)", status, body)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: status %d, want 503 (%s)", status, body)
	}
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz after drain: status %d, want 200", status)
	}
}

// TestPprofOnlyOnDebugMux: the query listener's mux must not expose the
// profiles (net/http/pprof registers them on http.DefaultServeMux, which
// newHandler does not use); the -debug-addr mux must.
func TestPprofOnlyOnDebugMux(t *testing.T) {
	ts, _ := testDaemon(t, maxBodyBytes)
	if status, _ := get(t, ts.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("query listener serves /debug/pprof/: status %d, want 404", status)
	}
	dbg := httptest.NewServer(newDebugHandler())
	defer dbg.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		if status, body := get(t, dbg.URL+path); status != http.StatusOK {
			t.Errorf("debug listener %s: status %d, want 200 (%.80s)", path, status, body)
		}
	}
}

// gatedConfig makes every session's traversal block until gate closes,
// and signals started at each session's first trace event, so a test can
// hold requests in flight for as long as it needs.
func gatedConfig(cfg serve.Config) (serve.Config, chan struct{}, chan struct{}) {
	gate, started := make(chan struct{}), make(chan struct{}, 16)
	cfg.Prepare = func(d *core.DynSum) error {
		d.Tracer = func(core.TraceEvent) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-gate
		}
		return nil
	}
	return cfg, gate, started
}

// TestFullLaneIs503: while the one whale worker is held, whale requests
// fill the dispatcher's hand and the one queue slot, and the next is
// shed with a typed 503 "overload"; the held ones complete once
// released.
func TestFullLaneIs503(t *testing.T) {
	cfg, gate, started := gatedConfig(serve.Config{Workers: 1, QueueDepth: 1})
	ts, prog := testDaemonCfg(t, maxBodyBytes, cfg)
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()
	if status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"t"}`); status != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", status, body)
	}
	query := `{"session":"s1","vars":[` + strconv.Itoa(int(prog.Derefs[0].Var)) + `]}`
	type reply struct {
		status int
		body   []byte
	}
	const maxSends = 8 // three requests fill the lane; the fourth is shed
	replies := make(chan reply, maxSends)
	send := func() {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(query))
			if err != nil {
				replies <- reply{status: -1, body: []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			replies <- reply{resp.StatusCode, body}
		}()
	}
	send()
	<-started // the worker is held
	sent := int64(1)
	for whaleLane(t, ts).Shed == 0 {
		if sent == maxSends {
			t.Fatalf("%d whale requests on a one-deep lane and none shed", sent)
		}
		send()
		sent++
		for lc := whaleLane(t, ts); lc.Admitted+lc.Shed < sent; lc = whaleLane(t, ts) {
			time.Sleep(time.Millisecond)
		}
	}
	var shed reply
	for range sent - whaleLane(t, ts).Admitted {
		shed = <-replies
	}
	if shed.status != http.StatusServiceUnavailable {
		t.Fatalf("query on a full lane: status %d, want 503 (%s)", shed.status, shed.body)
	}
	if kind := typedKind(t, shed.body); kind != "overload" {
		t.Errorf("kind %q, want overload", kind)
	}
	release()
	for range whaleLane(t, ts).Admitted {
		if r := <-replies; r.status != http.StatusOK {
			t.Errorf("held query: status %d, want 200 (%s)", r.status, r.body)
		}
	}
}

// whaleLane reads the whale lane's counters from /metrics.
func whaleLane(t *testing.T, ts *httptest.Server) serve.LaneCounters {
	t.Helper()
	_, body := get(t, ts.URL+"/metrics")
	var snap serve.MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Lanes["whale"]
}

// TestDrainWithRequestInFlight: a drain that arrives while a query runs
// turns /readyz and new queries away with 503 at once, lets the running
// query finish with its answer, and then returns.
func TestDrainWithRequestInFlight(t *testing.T) {
	cfg, gate, started := gatedConfig(serve.Config{})
	prog := benchgen.Generate(benchgen.ProfileByNameMust("soot-c").Scaled(0.002), 7)
	srv, err := serve.NewServer(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(srv, maxBodyBytes))
	defer ts.Close()
	if status, body := post(t, ts, "/v1/sessions", `{"id":"s1","tenant":"t"}`); status != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", status, body)
	}
	v := prog.Derefs[0].Var
	query := `{"session":"s1","vars":[` + strconv.Itoa(int(v)) + `]}`
	type reply struct {
		status int
		body   []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(query))
		if err != nil {
			inflight <- reply{status: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		inflight <- reply{resp.StatusCode, body}
	}()
	<-started
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	for srv.Ready() {
		time.Sleep(time.Millisecond)
	}
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503 (%s)", status, body)
	}
	status, body := post(t, ts, "/v1/query", query)
	if status != http.StatusServiceUnavailable {
		t.Errorf("query while draining: status %d, want 503 (%s)", status, body)
	} else if kind := typedKind(t, body); kind != "overload" {
		t.Errorf("query while draining: kind %q, want overload", kind)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with a query still in flight", err)
	default:
	}
	close(gate)
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight query: status %d, want 200 (%s)", r.status, r.body)
	}
	var out struct {
		Results []queryResult `json:"results"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil {
		t.Fatal(err)
	}
	want, err := core.NewDynSum(prog.G, core.Config{}, nil).PointsTo(v)
	if err != nil {
		t.Fatal(err)
	}
	var wantObjs []int64
	for _, o := range want.Objects() {
		wantObjs = append(wantObjs, int64(o))
	}
	if len(out.Results) != 1 || out.Results[0].Err != "" || !slices.Equal(out.Results[0].Objects, wantObjs) {
		t.Errorf("in-flight query reply %s, want objects %v", r.body, wantObjs)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}
