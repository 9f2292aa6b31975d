package harness

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPoolLoop drives the pool's worker loop at several widths with
// jittered unit costs, so interleavings vary run to run: every index
// runs exactly once; a unit that panics past every guard is recorded
// once on the pool's backstop while every other index still runs; and
// a Drain from inside a running unit lets the in-flight units finish,
// starts no further index, and leaves later Maps empty. It is not
// skipped under -short, so CI's race job runs it.
func TestPoolLoop(t *testing.T) {
	const n = 200
	jitter := func(i int) {
		for k := 0; k < (i*7)%5; k++ {
			runtime.Gosched()
		}
	}
	if NewPool(0).Workers() <= 0 {
		t.Fatal("default pool width must be positive")
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hits := make([]atomic.Int32, n)
			pool := NewPool(workers)
			pool.Map(n, func(i int) {
				jitter(i)
				hits[i].Add(1)
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("index %d ran %d times", i, h)
				}
			}
			pool.Map(0, func(int) { t.Error("map over zero items invoked f") })
			if done, total := pool.Progress(); done != n || total != n {
				t.Fatalf("progress %d/%d, want %d/%d", done, total, n, n)
			}

			// The backstop: one unit panics outside any guard.
			const bad = 17
			hits = make([]atomic.Int32, n)
			pool = NewPool(workers)
			pool.Map(n, func(i int) {
				jitter(i)
				if i == bad {
					panic("unit bug")
				}
				hits[i].Add(1)
			})
			for i := range hits {
				want := int32(1)
				if i == bad {
					want = 0
				}
				if h := hits[i].Load(); h != want {
					t.Fatalf("index %d ran %d times, want %d", i, h, want)
				}
			}
			failed := pool.drainPending()
			if len(failed) != 1 || failed[0].Cell != "(pool task)" || failed[0].Stage != "task" || failed[0].Err != "panic: unit bug" {
				t.Fatalf("backstop recorded %+v, want one (pool task) failure", failed)
			}
			if done, total := pool.Progress(); done != n || total != n {
				t.Fatalf("progress %d/%d after a backstopped panic, want %d/%d", done, total, n, n)
			}

			// Drain from inside unit 0, the first index handed out. Every
			// other unit waits until the drain has happened, so each
			// worker holds at most one unit when the flag goes up.
			var started, finished atomic.Int32
			drained := make(chan struct{})
			pool = NewPool(workers)
			pool.Map(n, func(i int) {
				started.Add(1)
				if i == 0 {
					pool.Drain()
					close(drained)
				} else {
					<-drained
				}
				jitter(i)
				finished.Add(1)
			})
			s := started.Load()
			if s < 1 || s > int32(workers) {
				t.Fatalf("%d units started around a drain at width %d, want 1..%d", s, workers, workers)
			}
			if f := finished.Load(); f != s {
				t.Fatalf("%d of %d in-flight units finished", f, s)
			}
			if done, _ := pool.Progress(); done != uint64(s) {
				t.Fatalf("progress counts %d done, want %d", done, s)
			}
			pool.Map(n, func(int) { t.Error("a drained pool started a unit") })
		})
	}
}
