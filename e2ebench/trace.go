package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/remoteexec"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	id, parent, op int64
	name           string
	start, end     time.Duration // since the tracer's epoch
}

// Op phases, used to attribute server-side work to the client step
// that caused it. One op is in flight at a time, so a global phase is
// exact.
const (
	phaseOther int32 = iota
	phasePush
)

// Client roles of the counting transport.
const (
	rolePush  = iota // the user's push of a new version
	rolePull         // the site's pull
	roleFarm         // executor and worker traffic
	roleOther        // everything else (push-back, fleet seeding)
)

// tracer records spans and per-layer counters. A nil tracer, or one
// that is not enabled, records nothing and its wrappers pass calls
// straight through; wrappers are only installed for traced runs.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	nextID  atomic.Int64
	op      atomic.Int64 // current op's id
	cur     atomic.Int64 // current step span: parent of layer spans
	phase   atomic.Int32

	mu    sync.Mutex
	spans []span

	alloc [2]atomic.Int64 // bytes allocated during populate and rebuild

	acGets, acHits, acGetNanos, acPuts, acPutNanos, acPutBytes atomic.Int64

	reqs       [4]atomic.Int64 // requests per client role
	uploads    atomic.Int64    // blobs the user's push uploaded
	skips      atomic.Int64    // blobs the user's push found present
	pullBytes  atomic.Int64    // blob bytes the site's pull read
	farmBytes  atomic.Int64    // blob bytes moved by the farm data plane
	proxyReqs  atomic.Int64
	proxyNanos atomic.Int64
	shardReqs  atomic.Int64
	shardNanos atomic.Int64
	replNanos  atomic.Int64 // follower time during the user's pushes

	farmMu      sync.Mutex
	tasks       map[string]*taskTimes
	statusPolls int64
	leasePolls  int64
	submitted   int64
}

// taskTimes is one farm task's life as the scheduler's handler saw it.
type taskTimes struct {
	submit, lease, result, done time.Time
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), tasks: map[string]*taskTimes{}}
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp starts op k's root span and returns a function ending it.
func (t *tracer) beginOp(name string) func() {
	if !t.on() {
		return func() {}
	}
	id := t.nextID.Add(1)
	t.op.Store(id)
	t.cur.Store(id)
	start := t.now()
	return func() { t.add(span{id: id, op: id, name: name, start: start, end: t.now()}) }
}

// step runs one call of the op as a span under the op's root; spans
// recorded by wrappers while it runs become its children.
func (t *tracer) step(name string, phase int32, fn func() error) error {
	if !t.on() {
		return fn()
	}
	root := t.op.Load()
	id := t.nextID.Add(1)
	t.cur.Store(id)
	t.phase.Store(phase)
	start := t.now()
	err := fn()
	t.add(span{id: id, parent: root, op: root, name: name, start: start, end: t.now()})
	t.cur.Store(root)
	t.phase.Store(phaseOther)
	return err
}

// child records a wrapper-level span under the current step.
func (t *tracer) child(name string, start time.Duration) {
	t.add(span{id: t.nextID.Add(1), parent: t.cur.Load(), op: t.op.Load(), name: name, start: start, end: t.now()})
}

// server records a server-side span for the current op. It has no
// parent: farm workers poll the servers concurrently with every step,
// so server time is reported per layer and never subtracted from a
// step's self time.
func (t *tracer) server(name string, start time.Duration) {
	t.add(span{id: t.nextID.Add(1), op: t.op.Load(), name: name, start: start, end: t.now()})
}

// selfTimes returns, per op and span name, the summed self time: each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[int64]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[int64]map[string]time.Duration{}
	for _, s := range t.spans {
		self := s.end - s.start - covered(s, children[s.id])
		if out[s.op] == nil {
			out[s.op] = map[string]time.Duration{}
		}
		out[s.op][s.name] += self
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total, reach time.Duration
	reach = parent.start
	for _, k := range kids {
		s, e := max(k.start, reach), min(k.end, parent.end)
		if e > s {
			total += e - s
			reach = e
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, one thread row per op), which Perfetto and chrome://tracing
// open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Calls whose allocation the traced run measures.
const (
	allocPopulate = iota
	allocRebuild
)

// allocs starts measuring the bytes allocated until the returned
// function is called, adding them to counter which. The count is
// process-wide, so it includes any server work running meanwhile.
func (t *tracer) allocs(which int) func() {
	if !t.on() {
		return func() {}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	return func() {
		runtime.ReadMemStats(&ms)
		t.alloc[which].Add(int64(ms.TotalAlloc - before))
	}
}

// --- action cache ---

// timedCache times and counts every call into the action-cache tier
// handed to the rebuild's memoizer.
type timedCache struct {
	t     *tracer
	inner actioncache.Cache
}

func (t *tracer) wrapCache(c actioncache.Cache) actioncache.Cache {
	if t == nil {
		return c
	}
	return timedCache{t, c}
}

func (c timedCache) Get(key digest.Digest) ([]byte, bool, error) {
	if !c.t.on() {
		return c.inner.Get(key)
	}
	start := c.t.now()
	val, ok, err := c.inner.Get(key)
	c.t.acGetNanos.Add(int64(c.t.now() - start))
	c.t.acGets.Add(1)
	if ok {
		c.t.acHits.Add(1)
	}
	c.t.child("actioncache.get", start)
	return val, ok, err
}

func (c timedCache) Put(key digest.Digest, val []byte) error {
	if !c.t.on() {
		return c.inner.Put(key, val)
	}
	start := c.t.now()
	err := c.inner.Put(key, val)
	c.t.acPutNanos.Add(int64(c.t.now() - start))
	c.t.acPuts.Add(1)
	c.t.acPutBytes.Add(int64(len(val)))
	c.t.child("actioncache.put", start)
	return err
}

func (c timedCache) Stats() actioncache.Stats { return c.inner.Stats() }

// --- HTTP clients ---

// client returns the HTTP client the benchmark gives one role; in a
// traced run its transport counts requests and blob bytes.
func (t *tracer) client(role int) *http.Client {
	if t == nil {
		return http.DefaultClient
	}
	return &http.Client{Transport: countingTransport{t, role, http.DefaultTransport}}
}

type countingTransport struct {
	t    *tracer
	role int
	base http.RoundTripper
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !c.t.on() {
		return c.base.RoundTrip(req)
	}
	c.t.reqs[c.role].Add(1)
	blob := strings.Contains(req.URL.Path, "/blobs/")
	if c.role == roleFarm && blob && req.Body != nil {
		req.Body = countingBody{req.Body, &c.t.farmBytes}
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch {
	case c.role == rolePush && req.Method == http.MethodHead && blob && resp.StatusCode == http.StatusOK:
		c.t.skips.Add(1)
	case c.role == rolePush && req.Method == http.MethodPut && strings.Contains(req.URL.Path, "/blobs/uploads") && resp.StatusCode == http.StatusCreated:
		c.t.uploads.Add(1)
	case c.role == rolePull && req.Method == http.MethodGet && blob:
		resp.Body = countingBody{resp.Body, &c.t.pullBytes}
	case c.role == roleFarm && req.Method == http.MethodGet && blob:
		resp.Body = countingBody{resp.Body, &c.t.farmBytes}
	}
	return resp, nil
}

// countingBody adds the bytes read through it to n.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// --- HTTP servers ---

// Server kinds of the timing middleware.
const (
	kindProxy = iota
	kindShard
	kindFollower
)

// serve wraps a fleet handler the benchmark constructs with timing
// middleware.
func (t *tracer) serve(kind int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	name := [...]string{"fleet.proxy", "fleet.shard", "fleet.follower"}[kind]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Farm requests relayed by the proxy long-poll; the scheduler
		// middleware times them instead.
		if !t.on() || strings.HasPrefix(r.URL.Path, remoteexec.APIPrefix) {
			h.ServeHTTP(w, r)
			return
		}
		phase := t.phase.Load()
		start := t.now()
		h.ServeHTTP(w, r)
		d := int64(t.now() - start)
		switch kind {
		case kindProxy:
			t.proxyReqs.Add(1)
			t.proxyNanos.Add(d)
		case kindShard:
			t.shardReqs.Add(1)
			t.shardNanos.Add(d)
		case kindFollower:
			if phase == phasePush {
				t.replNanos.Add(d)
			}
		}
		t.server(name, start)
	})
}

// teeWriter copies a small JSON response body aside as it is written.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// farm wraps the scheduler handler, matching task IDs across submit,
// lease, result and status requests to time each task's queueing,
// execution and completion notice.
func (t *tracer) farm(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, _ := strings.CutPrefix(r.URL.Path, remoteexec.APIPrefix+"/")
		parts := strings.Split(strings.Trim(p, "/"), "/")
		if !t.on() || len(parts) == 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		arrived := time.Now()
		tw := &teeWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		replied := time.Now()
		t.server("remoteexec.scheduler", start)

		t.farmMu.Lock()
		defer t.farmMu.Unlock()
		task := func(id string) *taskTimes {
			tt := t.tasks[id]
			if tt == nil {
				tt = &taskTimes{}
				t.tasks[id] = tt
			}
			return tt
		}
		switch {
		case len(parts) == 1 && parts[0] == "tasks" && r.Method == http.MethodPost:
			var sub remoteexec.SubmitResponse
			if json.Unmarshal(tw.buf.Bytes(), &sub) == nil && sub.TaskID != "" {
				task(sub.TaskID).submit = replied
				t.submitted++
			}
		case len(parts) == 1 && parts[0] == "lease":
			t.leasePolls++
			var lr remoteexec.LeaseResponse
			if json.Unmarshal(tw.buf.Bytes(), &lr) == nil {
				for _, lt := range lr.Leased() {
					task(lt.ID).lease = replied
				}
			}
		case len(parts) == 3 && parts[0] == "tasks" && parts[2] == "result":
			if tt := task(parts[1]); tt.result.IsZero() {
				tt.result = arrived
			}
		case len(parts) == 2 && parts[0] == "tasks" && r.Method == http.MethodGet:
			t.statusPolls++
			var st remoteexec.TaskStatus
			if json.Unmarshal(tw.buf.Bytes(), &st) == nil && st.State == remoteexec.StateDone {
				if tt := task(parts[1]); tt.done.IsZero() {
					tt.done = replied
				}
			}
		}
	})
}
