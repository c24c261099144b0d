package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

const requestTimeout = 30 * time.Second

// reply is one request as its client saw it.
type reply struct {
	at     time.Time     // when it was sent
	rtt    time.Duration // send until the reply body was read
	ok     bool          // 2xx and, for queries, a well-formed body
	bytes  int           // reply body size
	lane   string        // queries: the lane dynsumd reported
	queued time.Duration // queries: admission to worker pickup
	ran    time.Duration // queries: worker pickup to completion
	failed int           // queries: variables not answered
}

// httpRun is the outcome of driving one daemon with every stream.
type httpRun struct {
	start   time.Time     // when the timed phase began
	phase   time.Duration // timed phase wall clock, both clients
	replies [numClients][]reply
	spans   [numClients][]span // traced runs only
}

type queryReply struct {
	Lane     string `json:"lane"`
	QueuedNS int64  `json:"queued_ns"`
	RanNS    int64  `json:"ran_ns"`
	Results  []struct {
		Var     int64   `json:"var"`
		Objects []int64 `json:"objects"`
		Err     string  `json:"err"`
	} `json:"results"`
}

// drive runs every client's stream against the daemon at url: warm-up
// ops first, then — once every client has warmed — the timed ops. Each
// client is one goroutine on one keep-alive connection and sends its
// next request only after reading the previous reply. A traced run also
// records each request's spans as it goes.
func drive(url string, inst *instance, book *answerBook, traced bool) (*httpRun, error) {
	tr := &http.Transport{MaxConnsPerHost: numClients, MaxIdleConnsPerHost: numClients, DisableCompression: true}
	// Idle connections must be gone before the daemon is signalled, or
	// its graceful shutdown waits on them.
	defer tr.CloseIdleConnections()
	// A request that outlives the timeout counts as failed; it keeps a
	// hung daemon from stalling the run.
	client := &http.Client{Transport: tr, Timeout: requestTimeout}
	b64 := make([]string, len(inst.payloads))
	for k, p := range inst.payloads {
		b64[k] = base64.StdEncoding.EncodeToString(p)
	}

	run := &httpRun{}
	var ready, wg sync.WaitGroup
	ready.Add(numClients)
	begin := make(chan struct{})
	ends := make([]time.Time, numClients)
	errs := make([]error, numClients)
	for c := range numClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &clientLoop{id: c, url: url, http: client, ops: inst.streams[c], b64: b64, book: book, traced: traced}
			run.replies[c], ends[c], errs[c] = cl.run(&ready, begin)
			run.spans[c] = cl.spans
		}()
	}
	ready.Wait()
	run.start = time.Now()
	close(begin)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", c, err)
		}
		run.phase = max(run.phase, ends[c].Sub(run.start))
	}
	return run, nil
}

type clientLoop struct {
	id   int
	url  string
	http *http.Client
	ops  []op
	b64  []string
	book *answerBook
	body []byte
	buf  bytes.Buffer

	traced bool
	spans  []span
}

// run sends the stream. It signals ready after the warm-up ops and waits
// for begin before the timed ones.
func (cl *clientLoop) run(ready *sync.WaitGroup, begin <-chan struct{}) (replies []reply, end time.Time, err error) {
	replies = make([]reply, len(cl.ops))
	warm := true
	defer func() {
		if warm {
			ready.Done()
		}
	}()
	for i := range cl.ops {
		o := &cl.ops[i]
		if warm && !o.warm {
			warm = false
			ready.Done()
			<-begin
		}
		r, err := cl.send(o)
		if err != nil {
			return nil, end, err
		}
		replies[i] = r
		if cl.traced {
			cl.spans = appendRequestSpans(cl.spans, reqID(cl.id, i), r)
		}
		if o.warm && !r.ok {
			return nil, end, fmt.Errorf("warm-up request %d failed", i)
		}
	}
	return replies, time.Now(), nil
}

// send issues one op. The clock stops once the reply body has been read;
// the body is decoded afterwards so client-side decoding is not counted
// as server latency. Transport and status failures are recorded in the
// reply, not returned; the error is for malformed replies only.
func (cl *clientLoop) send(o *op) (reply, error) {
	sess := "c" + strconv.Itoa(cl.id) + ".s" + strconv.Itoa(o.sess)
	b := cl.body[:0]
	var path string
	switch o.kind {
	case opCreate:
		path = "/v1/sessions"
		b = append(b, `{"id":"`...)
		b = append(b, sess...)
		b = append(b, `","tenant":"c`...)
		b = strconv.AppendInt(b, int64(cl.id), 10)
		b = append(b, `"}`...)
	case opQuery:
		path = "/v1/query"
		b = append(b, `{"session":"`...)
		b = append(b, sess...)
		b = append(b, `","vars":[`...)
		for j, v := range o.vars {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, "]}"...)
	case opApply:
		path = "/v1/apply"
		b = append(b, `{"session":"`...)
		b = append(b, sess...)
		b = append(b, `","delta_b64":"`...)
		b = append(b, cl.b64[o.epoch]...)
		b = append(b, `"}`...)
	}
	cl.body = b
	req, err := http.NewRequest(http.MethodPost, cl.url+path, bytes.NewReader(b))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	cl.buf.Reset()

	start := time.Now()
	resp, err := cl.http.Do(req)
	status := 0
	if err == nil {
		_, err = cl.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	r := reply{at: start, rtt: time.Since(start), bytes: cl.buf.Len()}

	r.ok = err == nil && status/100 == 2
	if o.kind != opQuery {
		return r, nil
	}
	if !r.ok {
		r.failed = len(o.vars)
		return r, nil
	}
	var qr queryReply
	if err := json.Unmarshal(cl.buf.Bytes(), &qr); err != nil {
		return r, fmt.Errorf("query reply: %w", err)
	}
	if len(qr.Results) != len(o.vars) {
		return r, fmt.Errorf("query reply has %d results for %d vars", len(qr.Results), len(o.vars))
	}
	r.lane = qr.Lane
	r.queued = time.Duration(qr.QueuedNS)
	r.ran = time.Duration(qr.RanNS)
	for j, res := range qr.Results {
		if res.Var != int64(o.vars[j]) {
			return r, fmt.Errorf("query reply result %d is var %d, want %d", j, res.Var, o.vars[j])
		}
		if res.Err != "" {
			r.failed++
			continue
		}
		cl.book.record(o.epoch, o.vars[j], res.Objects)
	}
	return r, nil
}
