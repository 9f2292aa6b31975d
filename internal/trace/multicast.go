package trace

import (
	"time"

	"repro/internal/isa"
)

// Multicast fans one op stream out to several consumers in a single
// pass: each flushed batch is built once by the producer and
// dispatched to every sink in order before the batch is recycled.
// It is the zero-copy fan-out of the capture/replay engine — sibling
// machine configurations that share an op stream consume it together,
// instead of each re-running the kernel (or re-decoding a recording).
//
// The first sink is the primary (the capture machine); dispatch time
// spent on the remaining sinks is accumulated per call so the harness
// can attribute fan-out cost to the replay stage.
type Multicast struct {
	sinks      []BatchSink
	siblingNs  int64
	timeSplits bool
}

// NewMulticast builds a fan-out over the given sinks (at least one).
// timeSplits enables per-batch timing of the non-primary dispatches.
func NewMulticast(timeSplits bool, sinks ...BatchSink) *Multicast {
	if len(sinks) == 0 {
		panic("trace: multicast needs at least one sink")
	}
	return &Multicast{sinks: sinks, timeSplits: timeSplits}
}

// SiblingSeconds returns the accumulated batched-dispatch time of the
// non-primary sinks (0 unless timeSplits was set).
func (m *Multicast) SiblingSeconds() float64 { return float64(m.siblingNs) / 1e9 }

// RunBatch dispatches the batch to every sink. Sinks only read the
// batch; the producer's Flush resets it once afterwards.
func (m *Multicast) RunBatch(b *Batch) {
	m.sinks[0].RunBatch(b)
	if len(m.sinks) == 1 {
		return
	}
	if m.timeSplits {
		t0 := time.Now()
		for _, s := range m.sinks[1:] {
			s.RunBatch(b)
		}
		m.siblingNs += int64(time.Since(t0))
		return
	}
	for _, s := range m.sinks[1:] {
		s.RunBatch(b)
	}
}

// The per-op Sink methods forward to every sink in order, so
// producers that bypass batching (the allocator's direct emissions)
// reach all machines in program order too. These calls are not
// split-timed — per-op clock reads would dominate them — so their
// sibling share lands in the caller's own stage. Groups whose heap
// issues CFORMs send them per-op through here: the sens-machine and
// sens-llc CFORM columns and the xalancbmk ablation group do, so
// their sibling machines' CFORM dispatch is attributed to capture,
// not replay.

func (m *Multicast) NonMem(n uint32) {
	for _, s := range m.sinks {
		s.NonMem(n)
	}
}

func (m *Multicast) Load(addr uint64, size int, dependent bool) {
	for _, s := range m.sinks {
		s.Load(addr, size, dependent)
	}
}

func (m *Multicast) Store(addr uint64, size int) {
	for _, s := range m.sinks {
		s.Store(addr, size)
	}
}

func (m *Multicast) CForm(cf isa.CFORM) {
	for _, s := range m.sinks {
		s.CForm(cf)
	}
}

func (m *Multicast) WhitelistEnter() {
	for _, s := range m.sinks {
		s.WhitelistEnter()
	}
}

func (m *Multicast) WhitelistExit() {
	for _, s := range m.sinks {
		s.WhitelistExit()
	}
}

var _ BatchSink = (*Multicast)(nil)
