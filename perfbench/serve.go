package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The serve-mixed load: serveClients closed-loop clients against one
// in-process server with serveWorkers workers, on loopback. Each client
// owns servePerClient distinct specs and a schedule of serveSlots
// submissions, so serveSlots-servePerClient of them (20%) resubmit a
// spec the same client already finished and must hit the cache.
const (
	serveClients   = 2
	serveWorkers   = 2
	servePerClient = 24
	serveSlots     = 30
)

// serveSpecs are the four scenario shapes of the mix, sized so each
// simulation costs the host a similar 10-20 ms. The pool gives each a
// seed of its own.
var serveSpecs = []serve.Spec{
	{App: "jacobi", N: 16, Iters: 8, Ckpt: &serve.CkptSpec{Every: 2}},
	{App: "apsp", N: 12},
	{App: "bank", N: 8, Procs: 24, Manager: "karma"},
	{App: "airline", N: 12, Procs: 16},
}

// serveSession drives one stampserve instance per epoch: an epoch is
// every client walking its schedule once, and a fresh server per epoch
// bounds what the server retains (it keeps every run it has served)
// and re-arms the cache, so each epoch has the same hit share.
type serveSession struct {
	specs [][]byte // pool of distinct specs, JSON-encoded
	sched [serveClients][serveSlots]slot
	want  [][]byte // result bytes per pool entry, from the reference pass
	ref   []virt
	hc    *http.Client

	mu      sync.Mutex
	srv     *server
	arrived int
	ready   chan struct{}
	err     error // a failed server restart; fails every later op

	kernels kernelLog
	events  int64 // dispatched by the simulations of past epochs
	unhook  func()
}

type slot struct {
	entry int
	hit   bool // a resubmission the cache must serve
}

func newServeSession(seed int64, tr *tracer) (session, error) {
	t0 := time.Now()
	specs, sched, err := serveMix(seed)
	if err != nil {
		return nil, err
	}
	s := &serveSession{
		specs: specs,
		sched: sched,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
		}},
		ready: make(chan struct{}),
	}
	tr.record(tr.newID(), 0, 0, "workload.gen", t0, time.Now())
	s.unhook = core.AddGlobalOption(s.kernels.add)

	// Warm-up: one op on a server of its own.
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	o := s.cycle(s.srv.base, slot{entry: 0}, nil)
	s.stop()
	if !o.ok {
		s.close()
		return nil, fmt.Errorf("warm-up op: %s", o.why)
	}
	return s, nil
}

// serveMix generates the seed's pool of distinct JSON-encoded specs and
// each client's schedule over it.
func serveMix(seed int64) ([][]byte, [serveClients][serveSlots]slot, error) {
	rng := rand.New(rand.NewSource(seed))
	var specs [][]byte
	var sched [serveClients][serveSlots]slot
	for i, a := range rng.Perm(serveClients * servePerClient) {
		spec := serveSpecs[a%len(serveSpecs)]
		spec.Seed = int64(i+1)<<20 | rng.Int63n(1<<20) // distinct per entry, never 0
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, sched, fmt.Errorf("encode spec: %w", err)
		}
		specs = append(specs, b)
	}
	for c := range serveClients {
		// Resubmission slots come after the client's second op, so
		// each names a spec the client has already finished.
		hits := map[int]bool{}
		for len(hits) < serveSlots-servePerClient {
			hits[2+rng.Intn(serveSlots-2)] = true
		}
		next := c * servePerClient
		for j := range serveSlots {
			if hits[j] {
				done := next - c*servePerClient
				sched[c][j] = slot{entry: c*servePerClient + rng.Intn(done), hit: true}
			} else {
				sched[c][j] = slot{entry: next}
				next++
			}
		}
	}
	return specs, sched, nil
}

func (s *serveSession) close() {
	s.unhook()
	s.hc.CloseIdleConnections()
}

// reference submits every pool entry once, in order, to a server of
// its own, and records each result's bytes and work counts.
func (s *serveSession) reference() ([]op, []virt) {
	ops := make([]op, len(s.specs))
	ref := make([]virt, len(s.specs))
	want := make([][]byte, len(s.specs))
	if err := s.start(); err != nil {
		for i := range ops {
			ops[i] = op{entry: i, why: err.Error()}
		}
		return ops, ref
	}
	for i := range s.specs {
		ops[i] = s.cycle(s.srv.base, slot{entry: i}, nil)
		want[i] = ops[i].result
		if ops[i].ok {
			if err := s.runCounts(s.srv.base, ops[i].runID, &ops[i].work); err != nil {
				ops[i].ok, ops[i].why = false, err.Error()
			}
		}
		ref[i] = ops[i].work
	}
	s.stop()
	s.want, s.ref = want, ref
	return ops, ref
}

// start launches a fresh server for a timed window.
func (s *serveSession) start() error {
	s.kernels.take()
	srv, err := startServer()
	s.srv, s.err, s.arrived, s.events = srv, err, 0, 0
	return err
}

// stop shuts the server down and returns the kernel events its
// simulations dispatched.
func (s *serveSession) stop() int64 {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	s.hc.CloseIdleConnections()
	return s.events + s.kernels.take()
}

func (s *serveSession) do(ctx context.Context, c, k int, tr *tracer) (op, bool) {
	pos, epoch := k%serveSlots, k/serveSlots
	if pos == 0 && epoch > 0 && !s.rollover(ctx) {
		return op{}, false
	}
	s.mu.Lock()
	srv, err := s.srv, s.err
	s.mu.Unlock()
	sl := s.sched[c][pos]
	if err != nil {
		return op{entry: sl.entry, why: err.Error()}, true
	}
	o := s.cycle(srv.base, sl, tr)
	if o.ok && !sl.hit {
		o.work = s.ref[sl.entry]
	}
	return o, true
}

// rollover is called by each client as it finishes its schedule. The
// last to arrive replaces the server; the others wait for it or for
// the end of the window.
func (s *serveSession) rollover(ctx context.Context) bool {
	s.mu.Lock()
	s.arrived++
	last, ready := s.arrived == serveClients, s.ready
	s.mu.Unlock()
	if !last {
		select {
		case <-ready:
			return true
		case <-ctx.Done():
			return false
		}
	}
	// Every other client waits on ready, so none is using the server.
	s.srv.stop()
	s.hc.CloseIdleConnections()
	events := s.kernels.take()
	srv, err := startServer()
	s.mu.Lock()
	s.arrived, s.events, s.srv, s.err = 0, s.events+events, srv, err
	s.ready = make(chan struct{})
	s.mu.Unlock()
	close(ready)
	return true
}

// cycle is one client op: POST /runs, read /runs/{id}/events to its
// end, GET /runs/{id}/result, and check the result.
func (s *serveSession) cycle(base string, sl slot, tr *tracer) (o op) {
	o.entry = sl.entry
	id := tr.newID()
	t0 := time.Now()
	defer func() {
		o.lat = time.Since(t0)
		tr.record(id, 0, id, "op", t0, t0.Add(o.lat))
	}()
	fail := func(format string, args ...any) op {
		o.why = fmt.Sprintf("entry %d: ", sl.entry) + fmt.Sprintf(format, args...)
		return o
	}

	resp, err := s.hc.Post(base+"/runs", "application/json", bytes.NewReader(s.specs[sl.entry]))
	if err != nil {
		return fail("submit: %v", err)
	}
	var sub struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	t1 := time.Now()
	tr.record(tr.newID(), id, id, "serve.submit", t0, t1)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fail("submit: status %d, %v", resp.StatusCode, err)
	}
	o.runID, o.hit = sub.ID, sub.Cached
	if sub.Cached != sl.hit {
		return fail("submit: cached=%v, want %v", sub.Cached, sl.hit)
	}

	started, final, n, err := s.stream(base + "/runs/" + sub.ID + "/events")
	t2 := time.Now()
	o.streamBytes = n
	tr.record(tr.newID(), id, id, "serve.events", t1, t2)
	if err != nil {
		return fail("events: %v", err)
	}
	if !sl.hit && !started.IsZero() && !final.IsZero() {
		tr.record(tr.newID(), id, id, "serve.queue_wait", t0, started)
		tr.record(tr.newID(), id, id, "serve.run", started, final)
	}

	resp, err = s.hc.Get(base + "/runs/" + sub.ID + "/result")
	if err != nil {
		return fail("result: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.record(tr.newID(), id, id, "serve.result", t2, time.Now())
	if resp.StatusCode != http.StatusOK || err != nil {
		return fail("result: status %d, %v", resp.StatusCode, err)
	}
	o.result = body
	if s.want != nil {
		if !bytes.Equal(body, s.want[sl.entry]) {
			return fail("result bytes differ from the first response for this spec")
		}
		o.ok = true
		return o
	}
	var res struct {
		Status  string `json:"status"`
		Error   string `json:"error"`
		Correct *bool  `json:"correct"`
		Passed  *bool  `json:"passed"`
		Metrics *struct {
			T int64   `json:"t_ticks"`
			E float64 `json:"energy"`
		} `json:"metrics"`
		Events struct {
			Spans int64 `json:"spans"`
			Ckpts int64 `json:"ckpt_commits"`
		} `json:"events"`
	}
	switch err := json.Unmarshal(body, &res); {
	case err != nil:
		return fail("result: %v", err)
	case res.Status != "done":
		return fail("status %q: %s", res.Status, res.Error)
	case res.Correct != nil && !*res.Correct, res.Passed != nil && !*res.Passed:
		return fail("result reports a wrong answer")
	case res.Metrics == nil:
		return fail("result has no metrics")
	}
	o.work = virt{T: res.Metrics.T, E: res.Metrics.E, Spans: res.Events.Spans, Ckpts: res.Events.Ckpts, Out: outHash(body)}
	o.ok = true
	return o
}

// stream reads an NDJSON event stream to its end and returns when the
// run's "started" and final lifecycle events arrived and the bytes
// read.
func (s *serveSession) stream(url string) (started, final time.Time, n int64, err error) {
	resp, err := s.hc.Get(url)
	if err != nil {
		return started, final, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return started, final, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		n += int64(len(line)) + 1
		if !bytes.Contains(line, []byte(`"kind":"run"`)) {
			continue
		}
		var ev struct{ Name string }
		if err := json.Unmarshal(line, &ev); err != nil {
			return started, final, n, err
		}
		switch ev.Name {
		case "started":
			started = time.Now()
		case "done", "failed", "timeout":
			final = time.Now()
		}
	}
	if final.IsZero() {
		return started, final, n, errors.Join(errors.New("stream ended without a final run event"), sc.Err())
	}
	return started, final, n, sc.Err()
}

// runCounts adds the STM, memory and network counts from a finished
// run's /runs/{id}/metrics to v.
func (s *serveSession) runCounts(base, id string, v *virt) error {
	resp, err := s.hc.Get(base + "/runs/" + id + "/metrics")
	if err != nil {
		return fmt.Errorf("run metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("run metrics: status %d", resp.StatusCode)
	}
	counts := map[string]*int64{
		"stamp_stm_commits":            &v.Commits,
		"stamp_stm_aborts":             &v.Aborts,
		"stamp_mem_reads":              &v.Reads,
		"stamp_mem_writes":             &v.Writes,
		"stamp_net_messages_delivered": &v.Delivered,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || sp < 0 {
			continue
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		dst := counts[name]
		if dst == nil {
			continue
		}
		x, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("run metrics: %q: %w", line, err)
		}
		*dst += int64(x)
	}
	return sc.Err()
}

// server is one stampserve instance listening on loopback.
type server struct {
	s    *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := &server{s: serve.New(serveWorkers, nil), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	srv.hs = &http.Server{Handler: srv.s.Handler()}
	go func() {
		defer close(srv.done)
		srv.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return srv, nil
}

// stop waits for in-flight requests, closes the listener, and drains
// the run queue.
func (srv *server) stop() {
	if srv == nil {
		return
	}
	_ = srv.hs.Shutdown(context.Background()) // no deadline, so it cannot fail
	<-srv.done
	srv.s.Close()
}

// kernelLog collects the systems the server builds, through the
// program's process-wide option hook, so the benchmark can count the
// kernel events the HTTP API does not report.
type kernelLog struct {
	mu      sync.Mutex
	systems []*core.System
}

func (l *kernelLog) add(sys *core.System) {
	l.mu.Lock()
	l.systems = append(l.systems, sys)
	l.mu.Unlock()
}

// take returns the events dispatched by every logged system and clears
// the log. Call it only once their runs have finished.
func (l *kernelLog) take() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, sys := range l.systems {
		n += sys.K.Dispatched()
	}
	l.systems = nil
	return n
}
