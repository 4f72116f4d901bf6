package predict

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/radio"
)

// mapAndSort is the reference a Table stands in for: a map keyed by ID,
// copied out and sorted by ID on every read.
func mapAndSort(m map[radio.NodeID]Report) []Report {
	out := make([]Report, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	slices.SortFunc(out, func(x, y Report) int { return cmp.Compare(x.ID, y.ID) })
	return out
}

// runTableOps applies one Put per byte to a Table and to the reference and
// compares them after every Put. The byte picks the ID from 48 values
// (negative ones included), so IDs repeat and most Puts replace; the report
// carries its position in the stream, so a replacement that kept the old
// report shows.
func runTableOps(t *testing.T, ops []byte) {
	t.Helper()
	var tab Table
	ref := make(map[radio.NodeID]Report)
	for i, op := range ops {
		r := Report{ID: radio.NodeID(int(op%48) - 8), ReceivedAt: float64(i), PredictedArrival: float64(op)}
		tab.Put(r)
		ref[r.ID] = r
		if want := mapAndSort(ref); !slices.Equal(tab, want) {
			t.Fatalf("after %d Puts the table is %v, map-and-sort gives %v", i+1, tab, want)
		}
	}
}

func TestQuickTableAgreesWithMapAndSort(t *testing.T) {
	f := func(ops []byte) bool {
		ok := true
		t.Run("", func(st *testing.T) {
			runTableOps(st, ops)
			ok = !st.Failed()
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func FuzzTableAgainstMapAndSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 5, 5})                   // one neighbour, replaced twice
	f.Add([]byte{9, 3, 7, 1, 3, 9})          // out-of-order inserts, then replaces
	f.Add([]byte{0, 47, 8, 1, 46, 0, 47})    // negative, zero and largest IDs
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}) // past the first capacity
	f.Fuzz(func(t *testing.T, ops []byte) {
		runTableOps(t, ops)
	})
}

// TestTablePutReplaceZeroAllocs pins a Put that replaces a neighbour's
// report at zero allocations: after a node has heard its neighbourhood once,
// every further RESPONSE is a replace.
func TestTablePutReplaceZeroAllocs(t *testing.T) {
	var tab Table
	for id := radio.NodeID(0); id < 12; id++ {
		tab.Put(Report{ID: id})
	}
	now := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		tab.Put(Report{ID: 7, ReceivedAt: now})
	})
	if allocs != 0 {
		t.Errorf("replacing Put allocates %v allocs/op, want 0", allocs)
	}
	if len(tab) != 12 || tab[7].ReceivedAt != now {
		t.Fatalf("replace left %d reports, neighbour 7 received at %v (want 12, %v)", len(tab), tab[7].ReceivedAt, now)
	}
}
