package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// obj is the benchmark's own record of one object: its lifespan and its
// sorted, duplicate-free element ids. Terms on the wire are "e<elem>",
// the placeholder terms temporalir.EngineFromCollection gives element ids.
type obj struct {
	start, end int64
	elems      []uint32
}

func term(e uint32) string { return "e" + strconv.FormatUint(uint64(e), 10) }

func (o *obj) terms() []string {
	out := make([]string, len(o.elems))
	for i, e := range o.elems {
		out[i] = term(e)
	}
	return out
}

func (o *obj) has(e uint32) bool {
	i := sort.Search(len(o.elems), func(i int) bool { return o.elems[i] >= e })
	return i < len(o.elems) && o.elems[i] == e
}

// zipf draws ranks in [0, n) with P(r) proportional to (r+1)^-s, by
// inverse CDF over a precomputed table.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// deal returns n ranks in random order, rank r appearing P(r)·n times,
// rounded by largest remainder: the repetition n draws show on average,
// the same on every seed.
func (z *zipf) deal(rng *rand.Rand, n int) []int {
	out := make([]int, 0, n)
	rest := make([]int, len(z.cdf))
	frac := make([]float64, len(z.cdf))
	prev := 0.0
	for r, c := range z.cdf {
		x := (c - prev) * float64(n)
		prev = c
		for i := 0; i < int(x); i++ {
			out = append(out, r)
		}
		rest[r], frac[r] = r, x-math.Floor(x)
	}
	sort.SliceStable(rest, func(a, b int) bool { return frac[rest[a]] > frac[rest[b]] })
	for i := 0; len(out) < n; i++ {
		out = append(out, rest[i])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// typical draws k queries and returns the one whose result on the
// initial corpus has the median size. Heavy draws are rare, so how many
// of them a seed happens to make would otherwise set the tail latencies
// of the whole run.
func typical(m *model, k int, draw func() query) query {
	type cand struct {
		q    query
		size int
	}
	cs := make([]cand, k)
	for i := range cs {
		q := draw()
		cs[i] = cand{q, len(m.match(q))}
	}
	sort.SliceStable(cs, func(a, b int) bool { return cs[a].size < cs[b].size })
	return cs[k/2].q
}

// corpusSpec is the paper's Table 4 recipe for synthetic data: zipf
// interval durations, normally distributed interval positions and zipf
// element frequencies, at a size this benchmark can rebuild every round.
type corpusSpec struct {
	domain int64   // time domain [0, domain)
	alpha  float64 // zipf skew of durations
	dict   int     // dictionary size
	desc   int     // element draws per object (duplicates collapse)
	zeta   float64 // zipf skew of element frequencies
	// sigmaDiv sets the spread of interval midpoints: normal around the
	// domain's middle with standard deviation domain/sigmaDiv.
	sigmaDiv float64
}

// paperSpec is Table 4's defaults scaled by 1/10 in domain and
// dictionary: alpha 1.2, sigma domain/128, |d| 10, zeta 1.25.
var paperSpec = corpusSpec{domain: 12_800_000, alpha: 1.2, dict: 10_000, desc: 10, zeta: 1.25, sigmaDiv: 128}

// durationRanks bounds the zipf duration table; ranks are rescaled onto
// the domain as in the paper's generator.
const durationRanks = 1 << 16

// objGen draws objects by the recipe. The element permutation spreads
// frequent elements over the id space, as interning order would.
type objGen struct {
	spec  corpusSpec
	dur   *zipf
	elem  *zipf
	perm  []int
	sigma float64
}

func newObjGen(spec corpusSpec, rng *rand.Rand) *objGen {
	return &objGen{
		spec:  spec,
		dur:   newZipf(durationRanks, spec.alpha),
		elem:  newZipf(spec.dict, spec.zeta),
		perm:  rng.Perm(spec.dict),
		sigma: float64(spec.domain) / spec.sigmaDiv,
	}
}

func (g *objGen) object(rng *rand.Rand) obj {
	d := g.spec.domain
	dur := int64(float64(g.dur.draw(rng)+1) * float64(d) / durationRanks)
	if dur < 1 {
		dur = 1
	}
	mid := float64(d)/2 + rng.NormFloat64()*g.sigma
	mid = math.Max(0, math.Min(mid, float64(d-1)))
	start := int64(mid - float64(dur)/2)
	if start < 0 {
		start = 0
	}
	end := start + dur - 1
	if end >= d {
		end = d - 1
	}
	elems := make([]uint32, 0, g.spec.desc)
	for j := 0; j < g.spec.desc; j++ {
		elems = append(elems, uint32(g.perm[g.elem.draw(rng)]))
	}
	return obj{start: start, end: end, elems: normalize(elems)}
}

func (g *objGen) corpus(n int, rng *rand.Rand) []obj {
	out := make([]obj, n)
	for i := range out {
		out[i] = g.object(rng)
	}
	return out
}

func normalize(elems []uint32) []uint32 {
	sort.Slice(elems, func(i, j int) bool { return elems[i] < elems[j] })
	w := 0
	for i, e := range elems {
		if i == 0 || e != elems[w-1] {
			elems[w] = e
			w++
		}
	}
	return elems[:w]
}

// query is one read's interval and required elements.
type query struct {
	start, end int64
	elems      []uint32
}

func (q query) text() string {
	parts := make([]string, len(q.elems))
	for i, e := range q.elems {
		parts[i] = term(e)
	}
	return strings.Join(parts, " ")
}

// seeded positions an interval of the given extent to overlap the seed
// object and takes n of its elements, so the query is non-empty while
// the seed is live — the paper's way of drawing random non-empty
// queries (§5).
func (g *objGen) seeded(rng *rand.Rand, seed *obj, extent int64, n int) query {
	return g.around(rng, seed, seed.elems[rng.Intn(len(seed.elems))], extent, n)
}

// around is seeded with the first element fixed: the query carries
// first (an element of seed) and n-1 other elements of seed.
func (g *objGen) around(rng *rand.Rand, seed *obj, first uint32, extent int64, n int) query {
	lo := seed.start - extent
	if lo < 0 {
		lo = 0
	}
	start := lo + rng.Int63n(seed.end-lo+1)
	end := start + extent
	if end >= g.spec.domain {
		end = g.spec.domain - 1
	}
	elems := []uint32{first}
	for _, i := range rng.Perm(len(seed.elems)) {
		if len(elems) == n {
			break
		}
		if e := seed.elems[i]; e != first {
			elems = append(elems, e)
		}
	}
	return query{start: start, end: end, elems: normalize(elems)}
}

// ofRank returns the element with the given frequency rank (0 is the
// most frequent).
func (g *objGen) ofRank(rank int) uint32 { return uint32(g.perm[rank]) }

// rare draws a conjunction of n elements from the least frequent half
// of the dictionary over a random interval: mostly empty answers.
func (g *objGen) rare(rng *rand.Rand, extent int64, n int) query {
	half := g.spec.dict / 2
	elems := make([]uint32, n)
	for i := range elems {
		elems[i] = uint32(g.perm[half+rng.Intn(g.spec.dict-half)])
	}
	start := rng.Int63n(g.spec.domain - extent)
	return query{start: start, end: start + extent, elems: normalize(elems)}
}
