package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	temporalir "repro"
	"repro/internal/server"
	"repro/internal/tenant"
)

// method is the served index: irserve's default, irHINT-perf.
const method = temporalir.IRHintPerf

// runner holds one run's inputs and what the rounds measured.
type runner struct {
	w     *workload
	colls []*temporalir.Collection // per tenant, for single-store set-up
	spill string                   // sharded-tenants: snapshot directory

	attempted, failed [numKinds]int
	respBytes, reads  int
	// countAllocs reads the allocation counters around each ServeHTTP
	// call, outside its timed window (traced runs only).
	countAllocs         bool
	mallocs, allocBytes uint64
	counted             int
	builds              []float64 // s per round: the single store's index build
	rounds              []roundStats
	cur                 *roundStats
	finish              func() // ends the round begin started
	checkErr            error
}

// roundStats is what one round measured.
type roundStats struct {
	setup     float64   // s
	lat       []float64 // ServeHTTP ms of each served operation, in order
	rssMiB    float64   // peak resident set above baseMiB, set-up included
	baseMiB   float64   // resident set before set-up: the benchmark's own
	gcCycles  uint32    // collections during the timed phase
	gcPauseMs float64   // stop-the-world pauses during the timed phase
	traced    bool
}

// collection converts a corpus to the program's input form: element ids
// with object ids equal to positions.
func collection(corpus []obj, dict int) *temporalir.Collection {
	c := &temporalir.Collection{DictSize: dict, Objects: make([]temporalir.Object, len(corpus))}
	for i := range corpus {
		o := &corpus[i]
		elems := make([]temporalir.ElemID, len(o.elems))
		for j, e := range o.elems {
			elems[j] = temporalir.ElemID(e)
		}
		c.Objects[i] = temporalir.Object{
			ID:       temporalir.ObjectID(i),
			Interval: temporalir.NewInterval(o.start, o.end),
			Elems:    elems,
		}
	}
	return c
}

// prepare converts the inputs. For sharded-tenants it writes each
// tenant's snapshot into the spill directory, where the server's tenant
// registry loads it on first use; it returns the time spent building
// those engines.
func (r *runner) prepare(scratch string) (time.Duration, error) {
	for _, td := range r.w.tenants {
		r.colls = append(r.colls, collection(td.corpus, r.w.spec.dict))
	}
	if !r.w.sharded {
		return 0, nil
	}
	dir, err := os.MkdirTemp(scratch, "perfbench-spill-")
	if err != nil {
		return 0, err
	}
	r.spill = dir
	var build time.Duration
	for i, td := range r.w.tenants {
		t0 := time.Now()
		eng, err := temporalir.EngineFromCollection(r.colls[i], method, temporalir.Options{})
		build += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := writeSnapshot(filepath.Join(dir, td.id+".tir"), eng); err != nil {
			return 0, err
		}
	}
	r.colls = nil
	return build, nil
}

func writeSnapshot(path string, eng *temporalir.Engine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return f.Close()
}

// tenantID is the registry id serving tenant t.
func (r *runner) tenantID(t int) string {
	if r.w.sharded {
		return r.w.tenants[t].id
	}
	return tenant.DefaultID
}

// setup builds a fresh server over the workload's initial state and
// returns the time spent in the program: index build or snapshot loads,
// and server construction. build is the single store's index build.
func (r *runner) setup() (srv *server.Server, total, build time.Duration, err error) {
	t0 := time.Now()
	if !r.w.sharded {
		eng, err := temporalir.EngineFromCollection(r.colls[0], method, temporalir.Options{})
		if err != nil {
			return nil, 0, 0, err
		}
		build = time.Since(t0)
		srv := server.NewWithOptions(eng, server.Options{})
		return srv, time.Since(t0), build, nil
	}
	seed, err := temporalir.NewSharded(method, temporalir.Options{}, temporalir.ShardedOptions{
		Shards: shards,
		Bounds: temporalir.NewInterval(0, r.w.spec.domain-1),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	srv = server.NewWithOptions(seed, server.Options{SpillDir: r.spill})
	for t := range r.w.tenants {
		tn, err := srv.Registry().Get(r.tenantID(t))
		if err != nil {
			return nil, 0, 0, err
		}
		tn.Release()
	}
	return srv, time.Since(t0), 0, nil
}

// request builds the HTTP request for one operation.
func (r *runner) request(o *op) *http.Request {
	var req *http.Request
	switch o.kind {
	case opSearch, opTopK, opTimeline:
		v := url.Values{}
		v.Set("start", strconv.FormatInt(o.q.start, 10))
		v.Set("end", strconv.FormatInt(o.q.end, 10))
		v.Set("q", o.q.text())
		path := "/search?"
		switch o.kind {
		case opTopK:
			v.Set("k", strconv.Itoa(o.k))
		case opTimeline:
			v.Set("buckets", strconv.Itoa(o.n))
			path = "/timeline?"
		}
		req = httptest.NewRequest(http.MethodGet, path+v.Encode(), nil)
	case opGet:
		req = httptest.NewRequest(http.MethodGet, "/objects/"+strconv.FormatUint(uint64(o.id), 10), nil)
	case opDelete:
		req = httptest.NewRequest(http.MethodDelete, "/objects/"+strconv.FormatUint(uint64(o.id), 10), nil)
	case opInsert:
		body, _ := json.Marshal(map[string]any{"start": o.ins.start, "end": o.ins.end, "terms": o.ins.terms()})
		req = httptest.NewRequest(http.MethodPost, "/objects", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
	case opCompact:
		req = httptest.NewRequest(http.MethodPost, "/admin/compact", nil)
	}
	if r.w.sharded {
		req.Header.Set(tenant.Header, r.w.tenants[o.tenant].id)
	}
	return req
}

func wantStatus(k opKind) int {
	if k == opInsert {
		return http.StatusCreated
	}
	return http.StatusOK
}

// answer is the union of the response bodies the benchmark reads.
type answer struct {
	Count int `json:"count"`
	Hits  []struct {
		ID    uint32   `json:"id"`
		Score *float64 `json:"score"`
	} `json:"hits"`
	Partial    bool     `json:"partial"`
	Buckets    []bucket `json:"buckets"`
	ID         uint32   `json:"id"`
	Start      int64    `json:"start"`
	End        int64    `json:"end"`
	Terms      []string `json:"terms"`
	Deleted    uint32   `json:"deleted"`
	Compaction *struct {
		Base       int `json:"base_objects"`
		Mem        int `json:"memtable_objects"`
		Tombstones int `json:"tombstones"`
	} `json:"compaction"`
}

// rows is the number of result rows an answer carries.
func (a *answer) rows(k opKind) int {
	switch k {
	case opTimeline:
		return len(a.Buckets)
	case opGet:
		return 1
	}
	return len(a.Hits)
}

// check verifies one served answer against the model and applies the
// operation's effect to it. failed reports an operation the server
// refused; err reports a wrong answer.
func check(o *op, m *model, rec *httptest.ResponseRecorder) (a answer, failed bool, err error) {
	if rec.Code != wantStatus(o.kind) {
		return a, true, fmt.Errorf("%s: status %d: %s", kindNames[o.kind], rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
		return a, false, fmt.Errorf("%s: decoding answer: %w", kindNames[o.kind], err)
	}
	if a.Partial {
		return a, false, fmt.Errorf("%s: partial answer", kindNames[o.kind])
	}
	switch o.kind {
	case opSearch:
		if a.Count != len(a.Hits) {
			return a, false, fmt.Errorf("search: count %d but %d hits", a.Count, len(a.Hits))
		}
		ids := make([]uint32, len(a.Hits))
		for i, h := range a.Hits {
			ids[i] = h.ID
		}
		err = m.checkSearch(o.q, ids)
	case opTopK:
		hits := make([]scored, len(a.Hits))
		for i, h := range a.Hits {
			if h.Score == nil {
				return a, false, fmt.Errorf("topk: hit %d has no score", i)
			}
			hits[i] = scored{id: h.ID, score: *h.Score}
		}
		err = m.checkTopK(o.q, o.k, hits)
	case opTimeline:
		err = m.checkTimeline(o.q, o.n, a.Buckets)
	case opGet:
		err = m.checkGet(o.id, a.ID, a.Start, a.End, a.Terms)
	case opInsert:
		err = m.applyInsert(o.ins, a.ID)
	case opDelete:
		err = m.applyDelete(o.id, a.Deleted)
	case opCompact:
		if a.Compaction == nil {
			return a, false, fmt.Errorf("compact: no stats in answer")
		}
		err = m.checkCompact(a.Compaction.Base, a.Compaction.Mem, a.Compaction.Tombstones)
	}
	return a, false, err
}

// models starts a round's record of every store.
func (r *runner) models() []*model {
	out := make([]*model, len(r.w.tenants))
	for i := range r.w.tenants {
		out[i] = newModel(r.w.tenants[i].index)
	}
	return out
}

// note records a wrong answer; the first one fails the run.
func (r *runner) note(err error) {
	if err != nil && r.checkErr == nil {
		r.checkErr = err
	}
}

// settle collects garbage so the timed phase starts from a quiet heap.
func settle() {
	runtime.GC()
	runtime.GC()
}

// warmUp serves the untimed warm-up reads, checking every answer.
func (r *runner) warmUp(srv *server.Server, models []*model) {
	for i := range r.w.warm {
		o := &r.w.warm[i]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r.request(o))
		_, failed, err := check(o, models[o.tenant], rec)
		if failed {
			err = fmt.Errorf("warm-up %w", err)
		}
		r.note(err)
	}
}

// begin sets up one round: the round's record and requests, built
// ahead, a fresh server, the checked warm-up, and a settled heap. The
// resident set sampled before set-up, when the heap holds only the
// benchmark's own inputs and the round's requests, is the baseline that
// rss_peak_mb is measured above.
func (r *runner) begin() (*server.Server, []*model, []*http.Request, error) {
	r.finish = nil // it holds the last round's server
	models := r.models()
	reqs := make([]*http.Request, len(r.w.seq))
	for i := range r.w.seq {
		reqs[i] = r.request(&r.w.seq[i])
	}
	runtime.GC()
	debug.FreeOSMemory()
	base := residentMiB()
	rss := startRSS()
	r.cur = &roundStats{baseMiB: base}
	srv, setup, build, err := r.setup()
	if err != nil {
		rss.stop()
		return nil, nil, nil, err
	}
	r.cur.setup = setup.Seconds()
	r.builds = append(r.builds, build.Seconds())
	r.finish = func() {
		r.cur.rssMiB = rss.stop() - base
		r.rounds = append(r.rounds, *r.cur)
		r.registryCheck(srv)
	}
	r.warmUp(srv, models)
	settle()
	return srv, models, reqs, nil
}

// serve times one ServeHTTP call, accounts for it, and checks its answer
// outside the timed window. ok is false when the operation failed.
func (r *runner) serve(srv *server.Server, req *http.Request, o *op, m *model) (dt time.Duration, a answer, ok bool) {
	rec := httptest.NewRecorder()
	var before runtime.MemStats
	if r.countAllocs {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	srv.ServeHTTP(rec, req)
	dt = time.Since(t0)
	if r.countAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.mallocs += after.Mallocs - before.Mallocs
		r.allocBytes += after.TotalAlloc - before.TotalAlloc
		r.counted++
	}
	r.attempted[o.kind]++
	r.cur.lat = append(r.cur.lat, ms(dt))
	if o.kind.isRead() {
		r.respBytes += rec.Body.Len()
		r.reads++
	}
	a, failed, err := check(o, m, rec)
	if failed {
		r.failed[o.kind]++
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", err)
		return dt, a, false
	}
	r.note(err)
	return dt, a, true
}

// timedRound replays the sequence once on a fresh server, timing each
// ServeHTTP call. The heap is settled before the timed phase and
// collected once more before each compaction, outside the timed window,
// so that a rebuild's memory peak starts from the same heap whatever the
// seed; the collector's figures leave those forced collections out. A
// compaction's own garbage is collected by the cycles that fall on the
// timed calls after it.
func (r *runner) timedRound() error {
	srv, models, reqs, err := r.begin()
	if err != nil {
		return err
	}
	var ms0, ms1, f0, f1 runtime.MemStats
	var forcedCycles uint32
	var forcedPause uint64
	runtime.ReadMemStats(&ms0)
	for i := range r.w.seq {
		o := &r.w.seq[i]
		if o.kind == opCompact {
			runtime.ReadMemStats(&f0)
			runtime.GC()
			runtime.ReadMemStats(&f1)
			forcedCycles += f1.NumGC - f0.NumGC
			forcedPause += f1.PauseTotalNs - f0.PauseTotalNs
		}
		r.serve(srv, reqs[i], o, models[o.tenant])
		reqs[i] = nil
	}
	runtime.ReadMemStats(&ms1)
	r.cur.gcCycles = ms1.NumGC - ms0.NumGC - forcedCycles
	r.cur.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs-forcedPause) / 1e6
	r.finish()
	r.logRound()
	return nil
}

// logRound reports the last round on standard error.
func (r *runner) logRound() {
	c := &r.rounds[len(r.rounds)-1]
	var reads, writes []float64
	var total, compact float64
	for i, d := range c.lat {
		switch k := r.w.seq[i].kind; {
		case k.isRead():
			reads = append(reads, d)
		case k.isWrite():
			writes = append(writes, d)
		default:
			compact += d
		}
		total += d
	}
	fmt.Fprintf(os.Stderr, "round %d: setup %.3fs, %.1f ops/s, read p50 %.4f p99 %.3f ms, write p50 %.3f p95 %.3f ms, rss %.1f MiB above %.1f MiB; time in reads %.0f%%, writes %.0f%%, compactions %.0f%%\n",
		len(r.rounds), c.setup, float64(len(c.lat))/total*1e3, quantile(reads, .5), quantile(reads, .99),
		quantile(writes, .5), quantile(writes, .95), c.rssMiB, c.baseMiB,
		100*sum(reads)/total, 100*sum(writes)/total, 100*compact/total)
}

// registryCheck confirms the round ran without tenant churn: nothing
// evicted or spilled, so every tenant stayed as loaded at set-up.
func (r *runner) registryCheck(srv *server.Server) {
	reg := srv.Registry()
	if ev, sp := reg.Evictions(), reg.Spills(); ev != 0 || sp != 0 {
		r.note(fmt.Errorf("tenant registry evicted %d and spilled %d tenants; the workload expects neither", ev, sp))
	}
}
