package sim

// The per-cell watchdog: an opt-in deadline (-cell-timeout) on each
// run unit's simulation, enforced cooperatively at trace-batch
// boundaries rather than preemptively — a firing watchdog panics with
// CellTimeout from inside the cell's own goroutine, the harness's
// recovery layer records the cell as failed-timeout, and every other
// cell proceeds. Batches are a few thousand ops, so a runaway kernel
// is cut off within microseconds of its deadline without any per-op
// cost; a run that never flushes another batch (a hang outside the
// simulation loop) is out of scope — the watchdog targets pathological
// configurations that simulate forever, the CI failure mode that
// motivated it.
//
// Timeouts are wall-clock and therefore exempt from the repo's
// byte-determinism contract: which cells time out can vary across
// machines and runs. The rendered error is deterministic (it names
// only the configured limit), so a FAILED table is still stable for a
// given failure set.

import (
	"fmt"
	"sync/atomic"
	"time"
)

// cellTimeoutNs is the configured per-cell deadline; 0 disables the
// watchdog (the default).
var cellTimeoutNs atomic.Int64

// SetCellTimeout installs the per-cell deadline for subsequent runs;
// d <= 0 disables it.
func SetCellTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	cellTimeoutNs.Store(int64(d))
}

// CellTimeout is the panic value a firing watchdog raises. The
// harness's recovery layer classifies it as a timeout failure.
type CellTimeout struct{ Limit time.Duration }

func (e CellTimeout) Error() string {
	return fmt.Sprintf("cell exceeded -cell-timeout=%s", e.Limit)
}

// Watchdog arms one run's deadline, returning its batch-boundary check
// — or nil when no timeout is configured, keeping the default path
// free of wrapping. Every simulation loop wraps its sink in a
// trace.Guard with the check: the generation passes here, the replays
// of RunReplayed, and each core of a multicore.Run.
func Watchdog() func() {
	ns := cellTimeoutNs.Load()
	if ns <= 0 {
		return nil
	}
	limit := time.Duration(ns)
	start := time.Now()
	return func() {
		if time.Since(start) > limit {
			panic(CellTimeout{Limit: limit})
		}
	}
}
