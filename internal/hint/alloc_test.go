package hint

import (
	"math/rand"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/domain"
	"repro/internal/model"
)

// TestAllocBudget pins the steady-state allocation behavior of the HINT
// range query, the kernel every HINT-backed method pays per query. With
// a reused dst the growth amortizes to zero: one pass over the queries
// grows dst to the largest result before the timer and the memory
// counters are reset, so the one-time growth (a fixed total, whatever
// b.N is) cannot round up to 1 B/op on a machine where b.N is small.
// `make benchmem` re-records.
func TestAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := Build(domain.New(0, 1<<22, 12), randomEntries(rng, 100_000, 0, 1<<22))
	queries := make([]model.Interval, 1024)
	for i := range queries {
		s := model.Timestamp(rng.Int63n(1 << 22))
		queries[i] = model.Interval{Start: s, End: s + 4096}
	}

	allocbudget.Gate(t, "hint/Index.RangeQuery", func(b *testing.B) {
		var dst []model.ObjectID
		for _, q := range queries {
			dst = ix.RangeQuery(q, dst[:0])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = ix.RangeQuery(queries[i%len(queries)], dst[:0])
		}
	})
}
