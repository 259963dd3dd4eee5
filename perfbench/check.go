package main

import (
	"fmt"
	"slices"
	"sort"
)

// corpusIndex is the checker's own term map over a store's initial
// corpus: the objects (whose ids are their positions) and, per element,
// the ascending ids of the objects carrying it. It is built once and
// shared by every round; nothing in it comes from the program.
type corpusIndex struct {
	objs []obj
	post [][]uint32
}

func newCorpusIndex(objs []obj, dict int) *corpusIndex {
	ci := &corpusIndex{objs: objs, post: make([][]uint32, dict)}
	for id := range objs {
		for _, e := range objs[id].elems {
			ci.post[e] = append(ci.post[e], uint32(id))
		}
	}
	return ci
}

// model is the benchmark's record of one store's live objects during a
// round: the initial corpus minus what was deleted, plus what was
// inserted under the ids the server returned. Every answer is checked
// against a brute-force evaluation over this record.
type model struct {
	base     *corpusIndex
	dead     map[uint32]bool
	baseDead []bool // dead, for the initial corpus's dense ids
	added    map[uint32]*obj
	addPost  map[uint32][]uint32
	live     int
}

func newModel(base *corpusIndex) *model {
	return &model{
		base:     base,
		dead:     make(map[uint32]bool),
		baseDead: make([]bool, len(base.objs)),
		added:    make(map[uint32]*obj),
		addPost:  make(map[uint32][]uint32),
		live:     len(base.objs),
	}
}

// object returns the record of a known id, live or not.
func (m *model) object(id uint32) (*obj, bool) {
	if int(id) < len(m.base.objs) {
		return &m.base.objs[id], true
	}
	o, ok := m.added[id]
	return o, ok
}

func (m *model) isLive(id uint32) bool {
	_, ok := m.object(id)
	return ok && !m.isDead(id)
}

func (m *model) isDead(id uint32) bool {
	if int(id) < len(m.baseDead) {
		return m.baseDead[id]
	}
	return m.dead[id]
}

func (m *model) postings(e uint32) (base, added []uint32) {
	if int(e) < len(m.base.post) {
		base = m.base.post[e]
	}
	return base, m.addPost[e]
}

// match evaluates a query by brute force: the live objects that overlap
// the interval and carry every element, in ascending id order.
func (m *model) match(q query) []uint32 {
	if len(q.elems) == 0 {
		return nil
	}
	best := q.elems[0]
	bestLen := -1
	for _, e := range q.elems {
		b, a := m.postings(e)
		if n := len(b) + len(a); bestLen < 0 || n < bestLen {
			best, bestLen = e, n
		}
	}
	var out []uint32
	b, a := m.postings(best)
	for _, list := range [2][]uint32{b, a} {
		for _, id := range list {
			if m.isDead(id) {
				continue
			}
			o, _ := m.object(id)
			if o.end < q.start || o.start > q.end {
				continue
			}
			all := true
			for _, e := range q.elems {
				if e != best && !o.has(e) {
					all = false
					break
				}
			}
			if all {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// checkSearch demands exactly the brute-force id set, ascending.
func (m *model) checkSearch(q query, got []uint32) error {
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			return fmt.Errorf("search %v: ids not strictly ascending at %d (%d after %d)", q, i, got[i], got[i-1])
		}
	}
	want := m.match(q)
	return sameIDs("search", q, want, got)
}

func sameIDs(what string, q query, want, got []uint32) error {
	wi, gi := 0, 0
	for wi < len(want) || gi < len(got) {
		switch {
		case gi == len(got) || (wi < len(want) && want[wi] < got[gi]):
			return fmt.Errorf("%s %v: id %d missing (want %d ids, got %d)", what, q, want[wi], len(want), len(got))
		case wi == len(want) || got[gi] < want[wi]:
			return fmt.Errorf("%s %v: extra id %d (want %d ids, got %d)", what, q, got[gi], len(want), len(got))
		default:
			wi++
			gi++
		}
	}
	return nil
}

// scored is one ranked hit as the server returned it.
type scored struct {
	id    uint32
	score float64
}

// overlap is the number of time points an object shares with the query.
func overlap(o *obj, q query) int64 {
	lo, hi := o.start, o.end
	if q.start > lo {
		lo = q.start
	}
	if q.end < hi {
		hi = q.end
	}
	if lo > hi {
		return 0
	}
	return hi - lo + 1
}

// checkTopK checks a ranked answer against properties any correct
// ranking must have: min(k, |full|) hits, every hit in the full result,
// score descending with ties by ascending id. The score blends an IDF
// term that depends only on the query's elements with the temporal
// overlap share, so within one query the order is fixed by overlap: the
// hits must be exactly the k full-result ids of greatest overlap (ties
// by ascending id), and equal overlaps must carry equal scores.
func (m *model) checkTopK(q query, k int, got []scored) error {
	full := m.match(q)
	want := k
	if len(full) < want {
		want = len(full)
	}
	if len(got) != want {
		return fmt.Errorf("topk %v k=%d: %d hits, want %d", q, k, len(got), want)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.score < b.score || (a.score == b.score && a.id >= b.id) {
			return fmt.Errorf("topk %v: hit %d (id %d score %v) out of order after id %d score %v", q, i, b.id, b.score, a.id, a.score)
		}
	}
	inFull := make(map[uint32]bool, len(full))
	for _, id := range full {
		inFull[id] = true
	}
	for _, h := range got {
		if !inFull[h.id] {
			return fmt.Errorf("topk %v: id %d is not in the full result", q, h.id)
		}
	}
	// The expected hits: the want best of full by overlap descending,
	// then id ascending (full is ascending, so a later id never displaces
	// an earlier one of equal overlap).
	type rankedID struct {
		id uint32
		ov int64
	}
	ranked := make([]rankedID, 0, want+1)
	for _, id := range full {
		o, _ := m.object(id)
		r := rankedID{id, overlap(o, q)}
		i := len(ranked)
		for i > 0 && ranked[i-1].ov < r.ov {
			i--
		}
		if i < want {
			ranked = slices.Insert(ranked, i, r)
			if len(ranked) > want {
				ranked = ranked[:want]
			}
		}
	}
	for i, h := range got {
		if h.id != ranked[i].id {
			return fmt.Errorf("topk %v: hit %d is id %d, want id %d (overlap %d)", q, i, h.id, ranked[i].id, ranked[i].ov)
		}
		if i > 0 && ranked[i-1].ov == ranked[i].ov && got[i-1].score != h.score {
			return fmt.Errorf("topk %v: equal overlaps scored %v and %v", q, got[i-1].score, h.score)
		}
	}
	return nil
}

// bucket is one timeline row as the server returned it.
type bucket struct {
	Start, End int64
	Count      int
	Mass       int64
}

// checkTimeline checks that the buckets tile [q.start, q.end] — n of
// them unless the interval is shorter than n points — and recomputes
// each bucket's Count (matches alive in it) and Mass (matched time
// points in it) from the brute-force result.
func (m *model) checkTimeline(q query, n int, got []bucket) error {
	want := n
	if d := q.end - q.start + 1; d < int64(n) {
		want = int(d)
	}
	if len(got) != want {
		return fmt.Errorf("timeline %v: %d buckets, want %d", q, len(got), want)
	}
	next := q.start
	for i, b := range got {
		if b.Start != next || b.End < b.Start {
			return fmt.Errorf("timeline %v: bucket %d [%d,%d] does not continue at %d", q, i, b.Start, b.End, next)
		}
		next = b.End + 1
	}
	if next != q.end+1 {
		return fmt.Errorf("timeline %v: buckets end at %d, want %d", q, next-1, q.end)
	}
	counts := make([]int, len(got))
	mass := make([]int64, len(got))
	for _, id := range m.match(q) {
		o, _ := m.object(id)
		for i, b := range got {
			if ov := overlap(o, query{start: b.Start, end: b.End}); ov > 0 {
				counts[i]++
				mass[i] += ov
			}
		}
	}
	for i, b := range got {
		if b.Count != counts[i] || b.Mass != mass[i] {
			return fmt.Errorf("timeline %v: bucket %d count %d mass %d, want count %d mass %d", q, i, b.Count, b.Mass, counts[i], mass[i])
		}
	}
	return nil
}

// checkGet compares a fetched object with the record.
func (m *model) checkGet(id uint32, gotID uint32, start, end int64, terms []string) error {
	if !m.isLive(id) {
		return fmt.Errorf("get %d: the benchmark only fetches live ids", id)
	}
	o, _ := m.object(id)
	if gotID != id || start != o.start || end != o.end {
		return fmt.Errorf("get %d: got id %d [%d,%d], want [%d,%d]", id, gotID, start, end, o.start, o.end)
	}
	got := append([]string(nil), terms...)
	want := o.terms()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		return fmt.Errorf("get %d: terms %v, want %v", id, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("get %d: terms %v, want %v", id, got, want)
		}
	}
	return nil
}

// applyInsert records an inserted object under the id the server
// assigned, which must be fresh: no object of the store ever had it.
func (m *model) applyInsert(o obj, id uint32) error {
	if _, seen := m.object(id); seen {
		return fmt.Errorf("insert: id %d was already assigned", id)
	}
	rec := o
	m.added[id] = &rec
	for _, e := range o.elems {
		m.addPost[e] = append(m.addPost[e], id)
	}
	m.live++
	return nil
}

// applyDelete records a deletion; the benchmark only deletes live ids.
func (m *model) applyDelete(id, gotID uint32) error {
	if !m.isLive(id) {
		return fmt.Errorf("delete %d: the benchmark only deletes live ids", id)
	}
	if gotID != id {
		return fmt.Errorf("delete %d: server reports deleting %d", id, gotID)
	}
	if int(id) < len(m.baseDead) {
		m.baseDead[id] = true
	} else {
		m.dead[id] = true
	}
	m.live--
	return nil
}

// checkCompact checks the post-compaction state: memtable and tombstones
// drained, and the compacted base holding exactly the live objects.
func (m *model) checkCompact(base, mem, tombstones int) error {
	if mem != 0 || tombstones != 0 || base != m.live {
		return fmt.Errorf("compact: base %d memtable %d tombstones %d, want base %d and both drained", base, mem, tombstones, m.live)
	}
	return nil
}
