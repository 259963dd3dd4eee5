package postings

import (
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/model"
)

// TestAllocBudget pins the steady-state allocation behavior of the
// annotated intersection kernels: with a reused dst buffer both merges
// must be allocation-free once warmed up. Each dst-reusing closure runs
// its kernel once before b.ResetTimer, so the one-time growth of dst
// from nil is not divided into the per-op figures. `make benchmem`
// re-records.
func TestAllocBudget(t *testing.T) {
	l, cands := benchLists(10_000)
	other := make([]model.ObjectID, 0, len(l)/2)
	for i := 0; i < len(l); i += 2 {
		other = append(other, l[i].ID)
	}

	allocbudget.Gate(t, "postings/List.IntersectIDs", func(b *testing.B) {
		dst := l.IntersectIDs(cands, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = l.IntersectIDs(cands, dst[:0])
		}
	})

	allocbudget.Gate(t, "postings/IntersectSortedIDs", func(b *testing.B) {
		dst := IntersectSortedIDs(cands, other, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = IntersectSortedIDs(cands, other, dst[:0])
		}
	})

	// The bitmap container kernels: steady state marks, intersects and
	// compacts entirely inside pooled word slices.
	allocbudget.Gate(t, "postings/Bitmap.And", func(b *testing.B) {
		var ba, bb Bitmap
		ba.SetSorted(cands)
		bb.SetSorted(other)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ba.SetSorted(cands)
			ba.And(&bb)
		}
	})

	allocbudget.Gate(t, "postings/Bitmap.Or", func(b *testing.B) {
		var ba, bb Bitmap
		ba.SetSorted(cands)
		bb.SetSorted(other)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ba.SetSorted(cands)
			ba.Or(&bb)
		}
	})

	allocbudget.Gate(t, "postings/Bitmap.KeepSorted", func(b *testing.B) {
		var bb Bitmap
		bb.SetSorted(other)
		buf := append([]model.ObjectID(nil), cands...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf[:cap(buf)], cands)
			_ = bb.KeepSorted(buf[:len(cands)])
		}
	})

	allocbudget.Gate(t, "postings/IntersectGalloping", func(b *testing.B) {
		small := cands[:min(64, len(cands))]
		dst := IntersectGalloping(small, other, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = IntersectGalloping(small, other, dst[:0])
		}
	})
}
