package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	temporalir "repro"
	"repro/internal/server"
)

// span is one timed call into a layer, recorded from outside the
// program. Spans of one operation share req; parent links a call to the
// layer call it stands in for (the engine call under the handler that
// makes it, the index query under the engine call whose index it is), so
// a layer's self time is its duration minus its children's.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the traced run began
	Dur    int64  `json:"dur_ns"`
}

// sampleEvery picks the writes issued directly to the engine in place of
// the server call: every fourth insert and delete of the sequence.
const sampleEvery = 4

// traceRun alternates plain rounds, run as in an end-to-end run, which
// give the untraced baseline and the collector's counters, with traced
// rounds, which time each layer and count the allocations of each
// ServeHTTP call.
type traceRun struct {
	r     *runner
	seed  int64
	t0    time.Time
	spans []span

	shardBuild time.Duration // sharded-tenants: building the tenant snapshots' engines
	loadMs     []float64
	sizeMiB    float64
	loads      int
	refs       []*temporalir.Engine // sharded-tenants: unsharded engine per tenant

	rows, tasks, planned, pruned []float64
	memtable, tombstones         []float64
	copyMs, buildMs, swapMs      []float64

	traced []float64 // ServeHTTP read latencies, ms
	round  int       // traced rounds begun
}

func newTraceRun(r *runner, seed int64, shardBuild time.Duration) *traceRun {
	return &traceRun{r: r, seed: seed, shardBuild: shardBuild}
}

func (t *traceRun) run(budget time.Duration) error {
	t.t0 = time.Now()
	if t.r.w.sharded {
		if err := t.loadTenants(); err != nil {
			return err
		}
	}
	for rounds := 0; rounds < 2 || time.Since(t.t0) < budget; rounds += 2 {
		if err := t.r.timedRound(); err != nil {
			return err
		}
		if err := t.tracedRound(rounds == 0); err != nil {
			return err
		}
	}
	return nil
}

// loadTenants times LoadSharded per tenant snapshot and keeps an
// unsharded engine over each tenant's corpus as the N=1 reference.
func (t *traceRun) loadTenants() error {
	opts := temporalir.ShardedOptions{Shards: shards, Bounds: temporalir.NewInterval(0, t.r.w.spec.domain-1)}
	for _, td := range t.r.w.tenants {
		raw, err := os.ReadFile(filepath.Join(t.r.spill, td.id+".tir"))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := temporalir.LoadSharded(bytes.NewReader(raw), method, temporalir.Options{}, opts); err != nil {
			return fmt.Errorf("loading %s: %w", td.id, err)
		}
		t.loadMs = append(t.loadMs, ms(time.Since(t0)))
		ref, err := temporalir.LoadEngine(bytes.NewReader(raw), method, temporalir.Options{})
		if err != nil {
			return fmt.Errorf("loading %s: %w", td.id, err)
		}
		t.refs = append(t.refs, ref)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(ns int64) float64        { return float64(ns) / 1e3 }

// begin opens a span; end closes it.
func (t *traceRun) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Req: req, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *traceRun) end(id int) {
	t.spans[id].Dur = time.Since(t.t0).Nanoseconds() - t.spans[id].Start
}

// record adds a span for a call timed by the caller.
func (t *traceRun) record(name string, parent, req int, start time.Time, d time.Duration) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: d.Nanoseconds()})
	return len(t.spans) - 1
}

// tracedRound replays the sequence with each operation broken into
// layer calls: tenant resolution, the ServeHTTP call, the same read made
// directly on the engine and on its index, and on sharded-tenants the
// same read on the unsharded reference. Sampled writes and every
// compaction go to the engine directly.
func (t *traceRun) tracedRound(first bool) error {
	r := t.r
	srv, models, reqs, err := r.begin()
	if err != nil {
		return err
	}
	t.round++
	r.countAllocs = true
	defer func() { r.countAllocs = false }()
	if first {
		if err := t.measureStores(srv); err != nil {
			return err
		}
	}
	var writes [numKinds]int
	for i := range r.w.seq {
		o := &r.w.seq[i]
		m := models[o.tenant]
		root := t.begin("op."+kindNames[o.kind], -1, i)
		switch {
		case o.kind.isRead():
			t.read(srv, reqs[i], o, m, root, i)
		case o.kind.isWrite() && writes[o.kind]%sampleEvery != 0:
			writes[o.kind]++
			t0 := time.Now()
			dt, _, _ := r.serve(srv, reqs[i], o, m)
			t.record("server."+kindNames[o.kind], root, i, t0, dt)
		case o.kind.isWrite():
			writes[o.kind]++
			t.directWrite(srv, o, m, root, i)
		default:
			t.compact(srv, o, m, root, i)
		}
		reqs[i] = nil
		t.end(root)
	}
	r.cur.traced = true
	r.finish()
	return nil
}

// measureStores records the stores' sizes after set-up, how many
// tenants came from snapshots, and for a single store the time to load
// its snapshot.
func (t *traceRun) measureStores(srv *server.Server) error {
	var size int64
	for ti := range t.r.w.tenants {
		tn, err := srv.Registry().Get(t.r.tenantID(ti))
		if err != nil {
			return err
		}
		eng := tn.Engine()
		size += eng.SizeBytes()
		if t.r.spill != "" {
			if _, err := os.Stat(filepath.Join(t.r.spill, t.r.w.tenants[ti].id+".tir")); err == nil {
				t.loads++
			}
		}
		if !t.r.w.sharded {
			var buf bytes.Buffer
			if err := eng.Save(&buf); err != nil {
				tn.Release()
				return err
			}
			t0 := time.Now()
			_, err := temporalir.LoadEngine(&buf, method, temporalir.Options{})
			t.loadMs = append(t.loadMs, ms(time.Since(t0)))
			if err != nil {
				tn.Release()
				return err
			}
		}
		tn.Release()
	}
	t.sizeMiB = float64(size) / (1 << 20)
	return nil
}

// read traces one read. The direct calls repeat it at the same state,
// and their answers are checked like the server's. The calls run
// outermost first and innermost first by turns, alternating between
// neighbouring reads and between rounds for the same read, so that no
// layer always meets the caches cold and no layer always warm.
func (t *traceRun) read(srv *server.Server, req *http.Request, o *op, m *model, root, ri int) {
	r := t.r
	g0 := time.Now()
	tn, err := srv.Registry().Get(r.tenantID(o.tenant))
	getDur := time.Since(g0)
	if err != nil {
		r.note(err)
		return
	}
	eng := tn.Engine()
	st := eng.CompactStats()
	t.memtable = append(t.memtable, float64(st.MemObjects))
	t.tombstones = append(t.tombstones, float64(st.Tombstones))

	// timed is one layer call's start and duration.
	type timed struct {
		t0 time.Time
		d  time.Duration
	}
	var served, engine, index, ref timed
	calls := []func(){
		func() {
			items := eng.PoolStats().Items
			served.t0 = time.Now()
			dt, a, ok := r.serve(srv, req, o, m)
			served.d = dt
			t.traced = append(t.traced, ms(dt))
			t.tasks = append(t.tasks, float64(eng.PoolStats().Items-items))
			if ok {
				t.rows = append(t.rows, float64(a.rows(o.kind)))
			}
		},
		func() { engine.t0 = time.Now(); engine.d = t.engineRead(eng, o, m) },
	}
	// The index query runs on the served engine's index for a single
	// store, and on sharded-tenants under the unsharded reference's read.
	var single *temporalir.Engine
	if o.kind != opGet {
		if r.w.sharded {
			single = t.refs[o.tenant]
			calls = append(calls, func() { ref.t0 = time.Now(); ref.d = t.referenceRead(single, o) })
		} else {
			single, _ = eng.(*temporalir.Engine)
		}
	}
	if single != nil {
		q := temporalir.Query{Interval: temporalir.NewInterval(o.q.start, o.q.end), Elems: o.q.elemIDs()}
		calls = append(calls, func() { index.t0 = time.Now(); single.Index().Query(q); index.d = time.Since(index.t0) })
	}
	if (ri+t.round)%2 == 1 {
		for i, j := 0, len(calls)-1; i < j; i, j = i+1, j-1 {
			calls[i], calls[j] = calls[j], calls[i]
		}
	}
	for _, call := range calls {
		call()
	}

	srvSpan := t.record("server."+kindNames[o.kind], root, ri, served.t0, served.d)
	engSpan := t.record("temporalir."+kindNames[o.kind], srvSpan, ri, engine.t0, engine.d)
	if single != nil {
		indexParent := engSpan
		if r.w.sharded {
			indexParent = t.record("shard.single_store", root, ri, ref.t0, ref.d)
		}
		t.record("core.query", indexParent, ri, index.t0, index.d)
	}
	r0 := time.Now()
	tn.Release()
	t.record("tenant.get", root, ri, g0, getDur+time.Since(r0))
}

// engineRead makes a read directly on the served engine, checks its
// answer and returns the call's duration. On a Sharded engine it uses the
// *ShardsCtx variants and records their ShardReport.
func (t *traceRun) engineRead(eng server.Engine, o *op, m *model) time.Duration {
	sh, sharded := eng.(*temporalir.Sharded)
	terms := o.q.termList()
	ctx := context.Background()
	var rep temporalir.ShardReport
	var err error
	var check func() error
	e0 := time.Now()
	switch o.kind {
	case opSearch:
		var ids []temporalir.ObjectID
		if sharded {
			ids, rep, err = sh.SearchShardsCtx(ctx, o.q.start, o.q.end, terms...)
		} else {
			ids, err = eng.SearchCtx(ctx, o.q.start, o.q.end, terms...)
		}
		check = func() error { return m.checkSearch(o.q, toU32(ids)) }
	case opTopK:
		var res []temporalir.ScoredResult
		if sharded {
			res, rep, err = sh.SearchTopKShardsCtx(ctx, o.q.start, o.q.end, o.k, terms...)
		} else {
			res, err = eng.SearchTopKCtx(ctx, o.q.start, o.q.end, o.k, terms...)
		}
		check = func() error {
			hits := make([]scored, len(res))
			for i, h := range res {
				hits[i] = scored{id: uint32(h.ID), score: h.Score}
			}
			return m.checkTopK(o.q, o.k, hits)
		}
	case opTimeline:
		var tl []temporalir.TimelineBucket
		if sharded {
			tl, rep, err = sh.TimelineShardsCtx(ctx, o.q.start, o.q.end, o.n, terms...)
		} else {
			tl, err = eng.TimelineCtx(ctx, o.q.start, o.q.end, o.n, terms...)
		}
		check = func() error {
			bs := make([]bucket, len(tl))
			for i, b := range tl {
				bs[i] = bucket{Start: b.Start, End: b.End, Count: b.Count, Mass: b.Mass}
			}
			return m.checkTimeline(o.q, o.n, bs)
		}
	case opGet:
		var iv temporalir.Interval
		var gotTerms []string
		iv, gotTerms, err = eng.Object(temporalir.ObjectID(o.id))
		check = func() error { return m.checkGet(o.id, o.id, iv.Start, iv.End, gotTerms) }
	}
	d := time.Since(e0)
	t.direct(err, check)
	if sharded && o.kind != opGet {
		t.planned = append(t.planned, float64(rep.Planned))
		t.pruned = append(t.pruned, float64(rep.Pruned))
	}
	return d
}

// direct checks the answer of a direct engine call.
func (t *traceRun) direct(err error, check func() error) {
	if err != nil {
		t.r.note(fmt.Errorf("direct engine call: %w", err))
		return
	}
	t.r.note(check())
}

// referenceRead makes a query read on sharded-tenants' unsharded
// reference engine and returns its duration. Its answer is not checked:
// the reference does not see the round's writes.
func (t *traceRun) referenceRead(single *temporalir.Engine, o *op) time.Duration {
	ctx := context.Background()
	terms := o.q.termList()
	f0 := time.Now()
	switch o.kind {
	case opSearch:
		_, _ = single.SearchCtx(ctx, o.q.start, o.q.end, terms...)
	case opTopK:
		_, _ = single.SearchTopKCtx(ctx, o.q.start, o.q.end, o.k, terms...)
	case opTimeline:
		_, _ = single.TimelineCtx(ctx, o.q.start, o.q.end, o.n, terms...)
	}
	return time.Since(f0)
}

// directWrite issues a sampled write to the engine in place of the
// server call, with the scorer refresh the insert handler performs.
func (t *traceRun) directWrite(srv *server.Server, o *op, m *model, root, ri int) {
	r := t.r
	tn, err := srv.Registry().Get(r.tenantID(o.tenant))
	if err != nil {
		r.note(err)
		return
	}
	defer tn.Release()
	eng := tn.Engine()
	r.attempted[o.kind]++
	w0 := time.Now()
	if o.kind == opInsert {
		id := eng.Insert(o.ins.start, o.ins.end, o.ins.terms()...)
		t.record("temporalir.insert", root, ri, w0, time.Since(w0))
		f0 := time.Now()
		eng.RefreshScorer()
		t.record("rank.refresh", root, ri, f0, time.Since(f0))
		r.note(m.applyInsert(o.ins, uint32(id)))
		return
	}
	err = eng.Delete(temporalir.ObjectID(o.id))
	t.record("temporalir.delete", root, ri, w0, time.Since(w0))
	if err != nil {
		r.failed[o.kind]++
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: delete: %v\n", err)
		return
	}
	r.note(m.applyDelete(o.id, o.id))
}

// compact runs a compaction directly, with its phases from CompactStats.
func (t *traceRun) compact(srv *server.Server, o *op, m *model, root, ri int) {
	r := t.r
	tn, err := srv.Registry().Get(r.tenantID(o.tenant))
	if err != nil {
		r.note(err)
		return
	}
	defer tn.Release()
	r.attempted[opCompact]++
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c0 := time.Now()
	st, err := tn.Engine().Compact(ctx)
	t.record("maint.compact", root, ri, c0, time.Since(c0))
	if err != nil {
		r.failed[opCompact]++
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: compact: %v\n", err)
		return
	}
	t.copyMs = append(t.copyMs, ms(st.LastCopy))
	t.buildMs = append(t.buildMs, ms(st.LastBuild))
	t.swapMs = append(t.swapMs, ms(st.LastSwap))
	r.note(m.checkCompact(st.BaseObjects, st.MemObjects, st.Tombstones))
}

// layerStat summarizes the spans of one name.
type layerStat struct {
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	SelfUs float64 `json:"self_mean_us"`
}

// layers computes per-name mean duration and mean self time: duration
// minus the durations of the span's children.
func (t *traceRun) layers() map[string]layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	sum := map[string]*[3]int64{}
	for i, s := range t.spans {
		a := sum[s.Name]
		if a == nil {
			a = new([3]int64)
			sum[s.Name] = a
		}
		a[0]++
		a[1] += s.Dur
		a[2] += s.Dur - child[i]
	}
	out := make(map[string]layerStat, len(sum))
	for name, a := range sum {
		out[name] = layerStat{Count: int(a[0]), MeanUs: us(a[1]) / float64(a[0]), SelfUs: us(a[2]) / float64(a[0])}
	}
	return out
}

// pooled is the mean duration over the spans of the given names
// together.
func (t *traceRun) pooled(layers map[string]layerStat, names ...string) float64 {
	var n int
	var total float64
	for _, name := range names {
		l := layers[name]
		total += l.MeanUs * float64(l.Count)
		n += l.Count
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func (t *traceRun) metrics() []metric {
	r := t.r
	L := t.layers()
	mean1 := func(name string) float64 { return L[name].MeanUs }
	queries := []string{"temporalir.search", "temporalir.topk", "temporalir.timeline"}
	single := t.pooled(L, queries...)
	if r.w.sharded {
		single = mean1("shard.single_store")
	}
	build := median(r.builds)
	if r.w.sharded {
		build = t.shardBuild.Seconds()
	}
	// The plain rounds give the untraced figures: each operation's
	// ServeHTTP latency as the median of its plain replays, the
	// collector's counters, and the baseline of the tracing overhead.
	var plain [][]float64
	var plainReads, gcCycles, gcPauseMs []float64
	for _, s := range r.rounds {
		if s.traced {
			continue
		}
		plain = append(plain, s.lat)
		for i, d := range s.lat {
			if r.w.seq[i].kind.isRead() {
				plainReads = append(plainReads, d)
			}
		}
		gcCycles = append(gcCycles, float64(s.gcCycles))
		gcPauseMs = append(gcPauseMs, s.gcPauseMs)
	}
	servedUs := make([]float64, len(r.w.seq))
	col := make([]float64, len(plain))
	for i := range r.w.seq {
		for j := range plain {
			col[j] = plain[j][i]
		}
		servedUs[i] = median(col) * 1e3
	}
	served := func(k opKind) float64 {
		var xs []float64
		for i := range r.w.seq {
			if r.w.seq[i].kind == k {
				xs = append(xs, servedUs[i])
			}
		}
		return mean(xs)
	}
	// server.self_us: a read's untraced ServeHTTP latency minus the
	// traced engine call for the same read at the same state.
	engineUs := map[int][]float64{}
	for _, sp := range t.spans {
		switch sp.Name {
		case "temporalir.search", "temporalir.topk", "temporalir.timeline", "temporalir.get":
			engineUs[sp.Req] = append(engineUs[sp.Req], us(sp.Dur))
		}
	}
	var selfUs []float64
	for i := range r.w.seq {
		if e, ok := engineUs[i]; ok {
			selfUs = append(selfUs, servedUs[i]-mean(e))
		}
	}
	// temporalir.self_us needs the served engine's own index under the
	// engine call; a Sharded engine does not expose its shards' indexes.
	engineSelf := L["temporalir.search"].SelfUs
	if r.w.sharded {
		engineSelf = 0
	}
	overhead := (median(t.traced)/median(plainReads) - 1) * 100
	return []metric{
		{"server.search_us", served(opSearch), "us"},
		{"server.topk_us", served(opTopK), "us"},
		{"server.timeline_us", served(opTimeline), "us"},
		{"server.get_us", served(opGet), "us"},
		{"server.insert_us", served(opInsert), "us"},
		{"server.delete_us", served(opDelete), "us"},
		{"server.self_us", mean(selfUs), "us"},
		{"server.resp_bytes", float64(r.respBytes) / float64(r.reads), "B"},
		{"tenant.get_us", mean1("tenant.get"), "us"},
		{"tenant.loads", float64(t.loads), "count"},
		{"temporalir.search_us", mean1("temporalir.search"), "us"},
		{"temporalir.topk_us", mean1("temporalir.topk"), "us"},
		{"temporalir.timeline_us", mean1("temporalir.timeline"), "us"},
		{"temporalir.self_us", engineSelf, "us"},
		{"temporalir.insert_us", mean1("temporalir.insert"), "us"},
		{"temporalir.delete_us", mean1("temporalir.delete"), "us"},
		{"temporalir.build_s", build, "s"},
		{"temporalir.load_ms", mean(t.loadMs), "ms"},
		{"core.query_us", mean1("core.query"), "us"},
		{"core.results_per_query", mean(t.rows), "count"},
		{"core.size_mb", t.sizeMiB, "MiB"},
		{"exec.tasks_per_query", mean(t.tasks), "count"},
		{"maint.compact_ms", mean1("maint.compact") / 1e3, "ms"},
		{"maint.compact_copy_ms", mean(t.copyMs), "ms"},
		{"maint.compact_build_ms", mean(t.buildMs), "ms"},
		{"maint.compact_swap_ms", mean(t.swapMs), "ms"},
		{"maint.memtable_objects", mean(t.memtable), "count"},
		{"maint.tombstones", mean(t.tombstones), "count"},
		{"rank.refresh_ms", mean1("rank.refresh") / 1e3, "ms"},
		{"shard.planned_per_query", mean(t.planned), "count"},
		{"shard.pruned_per_query", mean(t.pruned), "count"},
		{"shard.single_store_us", single, "us"},
		{"runtime.allocs_per_op", float64(r.mallocs) / float64(r.counted), "count"},
		{"runtime.alloc_bytes_per_op", float64(r.allocBytes) / float64(r.counted), "B"},
		{"runtime.gc_cycles", mean(gcCycles), "count"},
		{"runtime.gc_pause_ms", mean(gcPauseMs), "ms"},
		{"bench.trace_overhead_pct", overhead, "%"},
	}
}

// write saves the spans and the per-layer summary, once, at the end of
// the run.
func (t *traceRun) write(dir string) error {
	path := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", t.r.w.name, t.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "result rows per traced read: p50 %.0f p90 %.0f p99 %.0f max %.0f\n",
		quantile(t.rows, .5), quantile(t.rows, .9), quantile(t.rows, .99), quantile(t.rows, 1))
	L := t.layers()
	names := make([]string, 0, len(L))
	for n := range L {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := L[n]
		fmt.Fprintf(os.Stderr, "layer %-22s count %7d mean %10.2f us self %10.2f us\n", n, l.Count, l.MeanUs, l.SelfUs)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"workload": t.r.w.name, "seed": t.seed, "layers": L, "spans": t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	return err
}

func toU32(ids []temporalir.ObjectID) []uint32 {
	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = uint32(id)
	}
	return out
}

func (q query) termList() []string { return strings.Fields(q.text()) }

func (q query) elemIDs() []temporalir.ElemID {
	out := make([]temporalir.ElemID, len(q.elems))
	for i, e := range q.elems {
		out[i] = temporalir.ElemID(e)
	}
	return out
}
