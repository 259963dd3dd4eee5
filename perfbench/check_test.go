package main

import "testing"

// tiny is a four-object store: element 1 on ids 0-2, element 2 on 0, 2, 3.
func tiny() *model {
	objs := []obj{
		{start: 0, end: 10, elems: []uint32{1, 2}},
		{start: 5, end: 20, elems: []uint32{1}},
		{start: 15, end: 30, elems: []uint32{1, 2}},
		{start: 40, end: 50, elems: []uint32{2}},
	}
	return newModel(newCorpusIndex(objs, 3))
}

// q1 overlaps ids 0, 1 and 2 for 11, 16 and 11 time points.
var q1 = query{start: 0, end: 25, elems: []uint32{1}}

func TestSearchCheck(t *testing.T) {
	m := tiny()
	if err := m.checkSearch(q1, []uint32{0, 1, 2}); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, got := range map[string][]uint32{
		"dropped id":    {0, 2},
		"extra id":      {0, 1, 2, 3},
		"swapped order": {0, 2, 1},
		"duplicate id":  {0, 1, 1, 2},
	} {
		if m.checkSearch(q1, got) == nil {
			t.Errorf("%s accepted: %v", name, got)
		}
	}
	if err := m.checkSearch(query{start: 0, end: 25, elems: []uint32{1, 2}}, []uint32{0, 2}); err != nil {
		t.Errorf("conjunction rejected: %v", err)
	}
}

func TestTopKCheck(t *testing.T) {
	m := tiny()
	// Overlap 16 ranks id 1 first; ids 0 and 2 tie at 11, so id 0 wins.
	good := []scored{{1, 0.5}, {0, 0.4}}
	if err := m.checkTopK(q1, 2, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, got := range map[string][]scored{
		"swapped order":     {{0, 0.4}, {1, 0.5}},
		"tie broken by id":  {{1, 0.5}, {2, 0.4}},
		"too many hits":     {{1, 0.5}, {0, 0.4}, {2, 0.4}},
		"too few hits":      {{1, 0.5}},
		"hit not in result": {{1, 0.5}, {3, 0.4}},
	} {
		if m.checkTopK(q1, 2, got) == nil {
			t.Errorf("%s accepted: %v", name, got)
		}
	}
	if m.checkTopK(q1, 3, []scored{{1, 0.5}, {0, 0.4}, {2, 0.39}}) == nil {
		t.Error("unequal scores for equal overlaps accepted")
	}
}

func TestTimelineCheck(t *testing.T) {
	m := tiny()
	good := []bucket{{0, 12, 2, 19}, {13, 25, 2, 19}}
	if err := m.checkTimeline(q1, 2, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, got := range map[string][]bucket{
		"off-by-one count": {{0, 12, 3, 19}, {13, 25, 2, 19}},
		"wrong mass":       {{0, 12, 2, 19}, {13, 25, 2, 20}},
		"gap":              {{0, 11, 2, 19}, {13, 25, 2, 19}},
		"short of the end": {{0, 12, 2, 19}, {13, 24, 2, 18}},
		"missing bucket":   {{0, 25, 3, 38}},
	} {
		if m.checkTimeline(q1, 2, got) == nil {
			t.Errorf("%s accepted: %v", name, got)
		}
	}
}

func TestGetCheck(t *testing.T) {
	m := tiny()
	if err := m.checkGet(2, 2, 15, 30, []string{"e2", "e1"}); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if m.checkGet(2, 2, 15, 30, []string{"e1"}) == nil {
		t.Error("missing term accepted")
	}
	if m.checkGet(2, 2, 15, 31, []string{"e1", "e2"}) == nil {
		t.Error("wrong interval accepted")
	}
}

func TestWriteChecks(t *testing.T) {
	m := tiny()
	o := obj{start: 22, end: 24, elems: []uint32{1}}
	if err := m.applyInsert(o, 4); err != nil {
		t.Fatalf("fresh id rejected: %v", err)
	}
	if m.applyInsert(o, 4) == nil {
		t.Error("duplicate insert id accepted")
	}
	if m.applyInsert(o, 3) == nil {
		t.Error("insert id of a corpus object accepted")
	}
	if err := m.applyDelete(1, 1); err != nil {
		t.Fatalf("delete of a live id rejected: %v", err)
	}
	if m.applyDelete(1, 1) == nil {
		t.Error("second delete of one id accepted")
	}
	if err := m.checkSearch(q1, []uint32{0, 2, 4}); err != nil {
		t.Errorf("search after writes: %v", err)
	}
	if m.checkSearch(q1, []uint32{0, 1, 2, 4}) == nil {
		t.Error("deleted id accepted in a search answer")
	}
	if err := m.checkCompact(4, 0, 0); err != nil {
		t.Errorf("compaction state rejected: %v", err)
	}
	if m.checkCompact(4, 0, 1) == nil || m.checkCompact(5, 0, 0) == nil {
		t.Error("undrained or miscounted compaction accepted")
	}
}
