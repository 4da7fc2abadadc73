package event

import "testing"

// checkNoStaleSlots asserts every calendar slot up to each backing array's
// capacity is empty, so a pooled engine pins nothing of the runs it served.
func checkNoStaleSlots(t *testing.T, where string, e *Engine) {
	t.Helper()
	check := func(kind string, idx int, slots []scheduled) {
		for i, s := range slots {
			if s.fn != nil || s.task != nil {
				t.Fatalf("%s: %s bucket %d slot %d of %d still holds an event", where, kind, idx, i, len(slots))
			}
		}
	}
	for i := range e.near {
		check("near", i, e.near[i].ev[:cap(e.near[i].ev)])
	}
	for i := range e.far {
		check("far", i, e.far[i].ev[:cap(e.far[i].ev)])
	}
	for i, b := range append(e.near[:], e.far[:]...) {
		if b.hw != 0 {
			t.Fatalf("%s: bucket %d keeps a high-water mark of %d; the next teardown would clear slots its run never used",
				where, i, b.hw)
		}
	}
	check("heap", 0, e.heap[:cap(e.heap)])
}

// TestRecycleClearsUsedSlots: bursts fill buckets far past what a later
// run uses, through every path that empties a bucket for reuse — the
// inline near add, a pour into a drained near bucket, the far-bucket pour,
// a Restore, and a seq splice into a drained bucket. Recycle must clear
// every slot those runs left behind, after the first run and after a
// second, short one.
func TestRecycleClearsUsedSlots(t *testing.T) {
	e := New()
	nop := func() {}
	task := func(*Task) {}
	burst := func(at Cycle, n int) {
		for i := 0; i < n; i++ {
			e.At(at, nop)
		}
	}
	seq := e.ReserveSeqs(1)
	burst(5, 300) // near[5]; reused inline by the event at 258
	for i := 0; i < 200; i++ {
		e.AtTask(2007, e.NewTask(task)) // far[7], poured into near[215]
	}
	burst(2263, 1)  // far[8], poured into the drained near[215]
	burst(550, 100) // near[38] via a pour; drained before the Restore
	e.At(600, nop)  // stops RunUntil(560) before the window runs ahead
	burst(3000, 50) // near[184] via a pour; drained before the splice
	e.At(258, func() { e.At(261, nop) })
	e.At(3100, func() { e.AtWithSeq(3256, seq, nop) })
	e.At(4000, nop)
	e.At(1<<20, nop) // overflow heap
	e.RunUntil(560)
	e.Restore(e.Snapshot())
	e.Run()
	e.Recycle()
	checkNoStaleSlots(t, "after the burst run", e)
	if p := NewPooled(); p != e {
		t.Fatal("the pool did not hand back the recycled engine")
	}

	burst(5, 3)
	e.AtTask(2007, e.NewTask(task))
	burst(550, 1)
	e.Run()
	e.Recycle()
	checkNoStaleSlots(t, "after the short run", e)
	if e.now != 0 || e.Pending() != 0 {
		t.Fatalf("recycled engine at cycle %d with %d pending, want a fresh calendar", e.now, e.Pending())
	}
}
