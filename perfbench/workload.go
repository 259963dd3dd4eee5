package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

type opKind int

const (
	opSearch opKind = iota
	opTopK
	opTimeline
	opGet
	opInsert
	opDelete
	opCompact
	numKinds
)

var kindNames = [numKinds]string{"search", "topk", "timeline", "get", "insert", "delete", "compact"}

func (k opKind) isRead() bool  { return k <= opGet }
func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

// op is one request of a workload's fixed sequence.
type op struct {
	kind   opKind
	tenant int // index into workload.tenants
	q      query
	k      int    // topk
	n      int    // timeline buckets
	id     uint32 // get, delete
	ins    obj    // insert
}

// key identifies a read request, for measuring repetition.
func (o *op) key() string {
	return fmt.Sprintf("%d/%d/%d/%d/%v/%d/%d/%d", o.kind, o.tenant, o.q.start, o.q.end, o.q.elems, o.k, o.n, o.id)
}

// tenantData is one store's initial corpus. A single-store workload has
// one tenant, served as the server's default tenant.
type tenantData struct {
	id     string
	corpus []obj
	index  *corpusIndex
}

// workload is everything a run replays: the stores' corpora, an untimed
// warm-up of reads and the timed operation sequence, all derived from
// the seed before any call into the program.
type workload struct {
	name    string
	sharded bool
	spec    corpusSpec
	tenants []tenantData
	warm    []op
	seq     []op
}

const (
	topK          = 10
	timelineWidth = 16
	// shards is the per-tenant shard count of sharded-tenants.
	shards = 4
)

var workloadNames = []string{"archive-read", "ingest-churn", "sharded-tenants"}

func makeWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "archive-read":
		return archiveRead(rng), nil
	case "ingest-churn":
		return ingestChurn(rng), nil
	case "sharded-tenants":
		return shardedTenants(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mix is a read/write make-up by operation count.
type mix [numKinds]int

// kinds lists mix's operations (compactions excluded) in random order.
func (m mix) kinds(rng *rand.Rand) []opKind {
	var out []opKind
	for k := opKind(0); k < opCompact; k++ {
		for i := 0; i < m[k]; i++ {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// victims picks n distinct ids of a corpus to delete, and a predicate
// for the ids that stay live all round.
func victims(rng *rand.Rand, size, n int) ([]uint32, func(uint32) bool) {
	perm := rng.Perm(size)[:n]
	out := make([]uint32, n)
	gone := make(map[uint32]bool, n)
	for i, id := range perm {
		out[i] = uint32(id)
		gone[uint32(id)] = true
	}
	return out, func(id uint32) bool { return !gone[id] }
}

// survivor draws a uniformly random id that is never deleted.
func survivor(rng *rand.Rand, size int, keep func(uint32) bool) uint32 {
	for {
		if id := uint32(rng.Intn(size)); keep(id) {
			return id
		}
	}
}

// archiveRead: read-mostly search over one large store built with the
// paper's Table 4 recipe. Reads repeat with zipf popularity over query
// pools of the paper's default queries, a §5-style sweep and rare
// conjunctions; a few writes and one compaction per round.
func archiveRead(rng *rand.Rand) *workload {
	const corpusSize = 100_000
	spec := paperSpec
	g := newObjGen(spec, rng)
	corpus := g.corpus(corpusSize, rng)
	w := &workload{name: "archive-read", spec: spec,
		tenants: []tenantData{{corpus: corpus, index: newCorpusIndex(corpus, spec.dict)}}}

	m := mix{opSearch: 3000, opTopK: 1200, opTimeline: 900, opGet: 900, opInsert: 140, opDelete: 70}
	dels, keep := victims(rng, corpusSize, m[opDelete])

	// Query reads fall into classes with fixed shares (per mille), so
	// every seed weighs them alike: the paper's default queries (0.1%
	// extent, 3 elements), the nine extent x |q.d| cells of a §5-style
	// sweep, and rare conjunctions. Within a class each query is read its
	// zipf(0.7) share of the class's timed reads, so requests repeat
	// while no single query carries a large share of the reads.
	type class struct {
		pool  []query // by popularity rank
		share int
		pop   *zipf
		deck  []int // popularity ranks of the class's timed reads
	}
	d := spec.domain
	var classes []*class
	ci := w.tenants[0].index
	add := func(share, n int, draw func() query) {
		c := &class{share: share, pop: newZipf(n, 0.7)}
		for i := 0; i < n; i++ {
			c.pool = append(c.pool, draw())
		}
		c.pool = byStratifiedCost(c.pool, ci)
		classes = append(classes, c)
	}
	add(550, 1000, func() query {
		return g.seeded(rng, &corpus[survivor(rng, corpusSize, keep)], d/1000, 3)
	})
	// A sweep cell's i-th query of n leads with the element of frequency
	// rank sweepRank((i+0.5)/n): the same frequencies on every seed. Of
	// five placements its result size is the median one.
	sizer := newModel(ci)
	for _, extent := range []int64{d / 10000, d / 100, d / 10} {
		for _, size := range []int{1, 2, 5} {
			const n = 120
			i := 0
			add(35, n, func() query {
				i++
				return typical(sizer, 5, func() query {
					return g.leading(rng, ci, keep, sweepRank((float64(i)-0.5)/n), extent, size)
				})
			})
		}
	}
	add(135, 50, func() query { return g.rare(rng, d/100, 2) })
	// labels deals each query read its class, in exact shares.
	labels := func(reads int) []*class {
		var out []*class
		for _, c := range classes {
			for i := 0; i < reads*c.share/1000; i++ {
				out = append(out, c)
			}
		}
		for len(out) < reads {
			out = append(out, classes[0])
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	gets := make([]uint32, 300)
	for i := range gets {
		gets[i] = survivor(rng, corpusSize, keep)
	}
	getPop := newZipf(len(gets), 1.0)
	read := func(k opKind, c *class) op {
		if k == opGet {
			return op{kind: opGet, id: gets[getPop.draw(rng)]}
		}
		r := 0
		if c.deck == nil {
			r = c.pop.draw(rng)
		} else {
			r, c.deck = c.deck[0], c.deck[1:]
		}
		return op{kind: k, q: c.pool[r], k: topK, n: timelineWidth}
	}

	warm := labels(150)
	for i := 0; i < 200; i++ {
		k := opKind(i % 4)
		var c *class
		if k != opGet {
			c, warm = warm[0], warm[1:]
		}
		w.warm = append(w.warm, read(k, c))
	}
	seqLabels := labels(m[opSearch] + m[opTopK] + m[opTimeline])
	reads := map[*class]int{}
	for _, c := range seqLabels {
		reads[c]++
	}
	for _, c := range classes {
		c.deck = c.pop.deal(rng, reads[c])
	}
	di := 0
	for _, k := range m.kinds(rng) {
		switch k {
		case opInsert:
			w.seq = append(w.seq, op{kind: opInsert, ins: g.object(rng)})
		case opDelete:
			w.seq = append(w.seq, op{kind: opDelete, id: dels[di]})
			di++
		case opGet:
			w.seq = append(w.seq, read(k, nil))
		default:
			w.seq = append(w.seq, read(k, seqLabels[0]))
			seqLabels = seqLabels[1:]
		}
	}
	w.seq = withCompactions(w.seq, []int{len(w.seq) / 2}, nil)
	return w
}

// sweepRank maps u in [0, 1) to a frequency rank log-spaced from 2 (an
// element on about half of the objects) to 2048 (about one in 6,000).
func sweepRank(u float64) int { return int(2 * math.Pow(1024, u)) }

// leading draws a query whose first element has the given frequency
// rank (or the next rank with a live object), placed around a random
// live object carrying it.
func (g *objGen) leading(rng *rand.Rand, ci *corpusIndex, keep func(uint32) bool, rank int, extent int64, size int) query {
	for ; ; rank++ {
		e := g.ofRank(rank)
		var live []uint32
		for _, id := range ci.post[e] {
			if keep(id) {
				live = append(live, id)
			}
		}
		if len(live) > 0 {
			return g.around(rng, &ci.objs[live[rng.Intn(len(live))]], e, extent, size)
		}
	}
}

// byStratifiedCost orders a query pool for popularity ranks so that the
// popular queries spread evenly over the pool's cost range on every
// seed: queries are sorted by result size on the initial corpus, and
// rank j takes the cost quantile given by the van der Corput sequence
// (1/2, 1/4, 3/4, 1/8, ...). Random ranks would let a seed make one
// costly query its most popular and shift every latency quantile.
func byStratifiedCost(pool []query, ci *corpusIndex) []query {
	m := newModel(ci)
	size := make([]int, len(pool))
	byCost := make([]int, len(pool))
	for i := range pool {
		size[i] = len(m.match(pool[i]))
		byCost[i] = i
	}
	sort.SliceStable(byCost, func(a, b int) bool { return size[byCost[a]] < size[byCost[b]] })
	ranks := make([]int, len(pool))
	for j := range ranks {
		ranks[j] = j
	}
	sort.Slice(ranks, func(a, b int) bool { return vdc(ranks[a]+1) < vdc(ranks[b]+1) })
	// ranks[p] is the popularity rank of the p-th cheapest query.
	out := make([]query, len(pool))
	for p, j := range ranks {
		out[j] = pool[byCost[p]]
	}
	return out
}

// vdc is the base-2 van der Corput radical inverse of i.
func vdc(i int) float64 {
	v, f := 0.0, 0.5
	for ; i > 0; i >>= 1 {
		if i&1 == 1 {
			v += f
		}
		f /= 2
	}
	return v
}

// ingestChurn: an evolving corpus on one store. A small seed corpus
// grows through the round; inserts and deletes are most operations,
// reads are default queries that never repeat, and compaction runs
// every fixed number of writes.
func ingestChurn(rng *rand.Rand) *workload {
	const corpusSize = 10_000
	const compactEvery = 400
	spec := paperSpec
	g := newObjGen(spec, rng)
	corpus := g.corpus(corpusSize, rng)
	w := &workload{name: "ingest-churn", spec: spec,
		tenants: []tenantData{{corpus: corpus, index: newCorpusIndex(corpus, spec.dict)}}}

	m := mix{opSearch: 800, opTopK: 400, opTimeline: 400, opGet: 400, opInsert: 2400, opDelete: 1200}
	dels, keep := victims(rng, corpusSize, m[opDelete])
	var inserted []obj
	extent := spec.domain / 1000
	sizer := newModel(w.tenants[0].index)
	read := func(k opKind) op {
		if k == opGet {
			return op{kind: opGet, id: survivor(rng, corpusSize, keep)}
		}
		// Half the queries look at data written during the round. Of
		// five draws, the one of median result size is read.
		fresh := len(inserted) > 0 && rng.Intn(2) == 0
		q := typical(sizer, 5, func() query {
			seed := &corpus[survivor(rng, corpusSize, keep)]
			if fresh {
				seed = &inserted[rng.Intn(len(inserted))]
			}
			return g.seeded(rng, seed, extent, 3)
		})
		return op{kind: k, q: q, k: topK, n: timelineWidth}
	}
	for i := 0; i < 100; i++ {
		w.warm = append(w.warm, read(opKind(i%4)))
	}
	di, writes := 0, 0
	var at []int
	for _, k := range m.kinds(rng) {
		switch k {
		case opInsert:
			o := g.object(rng)
			inserted = append(inserted, o)
			w.seq = append(w.seq, op{kind: opInsert, ins: o})
		case opDelete:
			w.seq = append(w.seq, op{kind: opDelete, id: dels[di]})
			di++
		default:
			w.seq = append(w.seq, read(k))
		}
		if k.isWrite() {
			if writes++; writes%compactEvery == 0 {
				at = append(at, len(w.seq))
			}
		}
	}
	w.seq = withCompactions(w.seq, at, nil)
	return w
}

// shardedTenants: eight tenants, each served by a 4-shard time-range
// engine loaded from its snapshot at set-up. A zipf choice of tenant
// precedes each request; reads mix narrow intervals (one shard) with
// broad ones (every shard); a few writes and per-tenant compactions.
func shardedTenants(rng *rand.Rand) *workload {
	const tenants = 8
	const corpusSize = 12_000
	spec := paperSpec
	// Positions spread wider than Table 4's domain/128 so the time-range
	// shards all hold data.
	spec.sigmaDiv = 8
	g := newObjGen(spec, rng)
	w := &workload{name: "sharded-tenants", sharded: true, spec: spec}
	keeps := make([]func(uint32) bool, tenants)
	dels := make([][]uint32, tenants)
	for t := 0; t < tenants; t++ {
		corpus := g.corpus(corpusSize, rng)
		w.tenants = append(w.tenants, tenantData{id: fmt.Sprintf("tenant%d", t), corpus: corpus, index: newCorpusIndex(corpus, spec.dict)})
		dels[t], keeps[t] = victims(rng, corpusSize, 60)
	}
	pick := newZipf(tenants, 0.8)
	d := spec.domain
	sizers := make([]*model, tenants)
	for t := range sizers {
		sizers[t] = newModel(w.tenants[t].index)
	}
	// Two reads in five of each kind are broad. A broad query leads with
	// an element whose frequency rank follows the golden-ratio sequence
	// over the sweep's range, counted per kind, so every seed gives each
	// endpoint the same leading frequencies; of fifteen placements and
	// second elements, the one of median result size is read. The broad
	// full searches of the most frequent leading elements set
	// read_p99_ms, and with fewer draws their sizes varied by seed.
	var reads [numKinds]int
	read := func(k opKind, t int) op {
		td := &w.tenants[t]
		if k == opGet {
			return op{kind: opGet, tenant: t, id: survivor(rng, corpusSize, keeps[t])}
		}
		reads[k]++
		var q query
		if n := reads[k]; n%5 < 2 {
			rank := sweepRank(math.Mod(float64(n)*0.6180339887498949, 1))
			q = typical(sizers[t], 15, func() query {
				return g.leading(rng, td.index, keeps[t], rank, d/2, 2)
			})
		} else {
			q = g.seeded(rng, &td.corpus[survivor(rng, corpusSize, keeps[t])], d/2000, 3)
		}
		return op{kind: k, tenant: t, q: q, k: topK, n: timelineWidth}
	}
	for i := 0; i < 200; i++ {
		w.warm = append(w.warm, read(opKind(i%4), pick.draw(rng)))
	}
	m := mix{opSearch: 1100, opTopK: 450, opTimeline: 350, opGet: 350, opInsert: 140, opDelete: 70}
	next := make([]int, tenants)
	for _, k := range m.kinds(rng) {
		t := pick.draw(rng)
		switch k {
		case opInsert:
			w.seq = append(w.seq, op{kind: opInsert, tenant: t, ins: g.object(rng)})
		case opDelete:
			// Deletes take each tenant's victims in order; a tenant
			// whose victims ran out deletes elsewhere.
			for next[t] == len(dels[t]) {
				t = (t + 1) % tenants
			}
			w.seq = append(w.seq, op{kind: opDelete, tenant: t, id: dels[t][next[t]]})
			next[t]++
		default:
			w.seq = append(w.seq, read(k, t))
		}
	}
	n := len(w.seq)
	w.seq = withCompactions(w.seq, []int{n / 4, n / 2, 3 * n / 4}, func() int { return pick.draw(rng) })
	return w
}

// withCompactions inserts a POST /admin/compact before each listed
// position of seq (ascending), on the tenant tenantOf picks (tenant 0
// when nil).
func withCompactions(seq []op, at []int, tenantOf func() int) []op {
	sort.Ints(at)
	out := make([]op, 0, len(seq)+len(at))
	j := 0
	for i := 0; i <= len(seq); i++ {
		for j < len(at) && at[j] == i {
			t := 0
			if tenantOf != nil {
				t = tenantOf()
			}
			out = append(out, op{kind: opCompact, tenant: t})
			j++
		}
		if i < len(seq) {
			out = append(out, seq[i])
		}
	}
	return out
}

// repeatShare is the share of timed reads whose request was already
// issued earlier in the round (or in its warm-up).
func (w *workload) repeatShare() float64 {
	seen := map[string]bool{}
	for i := range w.warm {
		seen[w.warm[i].key()] = true
	}
	reads, repeats := 0, 0
	for i := range w.seq {
		if !w.seq[i].kind.isRead() {
			continue
		}
		reads++
		k := w.seq[i].key()
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	if reads == 0 {
		return 0
	}
	return float64(repeats) / float64(reads)
}
