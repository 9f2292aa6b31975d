package server

import (
	"sync"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/trace"
)

// dedupStore is the server's shared store handle: every job's journal
// backs onto one dedupStore wrapping the on-disk store, and the
// dedupStore adds an in-flight singleflight keyed on sim.StreamKey.
//
// The harness's capture protocol makes a GetRecording miss a claim:
// the stream handle that misses becomes the stream's capturer and is
// guaranteed to end the capture with either PutRecording (success) or
// AbortStream (the capture panicked — see harness.StreamAborter). That
// includes a mix unit whose stream's solo result was stored but whose
// recording is gone: the unit's miss is a claim like any other, and
// the unit captures the stream.
// dedupStore turns that protocol into cross-job dedup: the first job
// to miss registers a flight and captures; any concurrent job asking
// for the same stream blocks on the flight instead of claiming its own
// generation pass, and on release re-reads the store — a hit after
// PutRecording, a retry (and possibly a claim of its own) after an
// abort. Concurrent jobs therefore never capture the same op stream
// twice, and the server-wide generation-pass count for N identical
// concurrent submissions equals one cold run's.
//
// Waiting blocks one worker goroutine of the waiting job's pool, never
// the capturing pool: stream keys are unique within a job's sweep (one
// stream handle per key), so a job can only wait on another job's
// capture.
type dedupStore struct {
	st harness.Store // the shared on-disk store

	mu      sync.Mutex
	flights map[string]chan struct{}
}

func newDedupStore(st harness.Store) *dedupStore {
	return &dedupStore{st: st, flights: make(map[string]chan struct{})}
}

// GetRecording reports a stored recording, or — when the stream is
// neither stored nor in flight — registers a flight and returns a miss,
// making the caller the stream's capturer. When the stream is in
// flight it blocks until the flight releases and retries.
//
// The store is never read under mu, so reads of different streams
// never wait on each other. A capture that finishes between the first
// read and the claim has stored its recording before releasing its
// flight, so the read after the claim sees it: the claim is dropped
// and the stream is served, never captured twice.
func (d *dedupStore) GetRecording(key string) (*trace.Recording, bool) {
	for {
		if rec, ok := d.st.GetRecording(key); ok {
			return rec, true
		}
		d.mu.Lock()
		ch, inflight := d.flights[key]
		if !inflight {
			d.flights[key] = make(chan struct{})
		}
		d.mu.Unlock()
		if inflight {
			<-ch
			continue
		}
		if rec, ok := d.st.GetRecording(key); ok {
			d.release(key)
			return rec, true
		}
		return nil, false
	}
}

// PutRecording persists the captured stream and releases its flight,
// waking every job blocked on the capture.
func (d *dedupStore) PutRecording(key string, rec *trace.Recording) {
	d.st.PutRecording(key, rec)
	d.release(key)
}

// AbortStream releases the flight without a recording: the capture
// panicked. One waiter's retry will claim a fresh flight and capture.
func (d *dedupStore) AbortStream(key string) { d.release(key) }

func (d *dedupStore) release(key string) {
	d.mu.Lock()
	if ch, ok := d.flights[key]; ok {
		delete(d.flights, key)
		close(ch)
	}
	d.mu.Unlock()
}

// The remaining Store methods pass through: finished results and mix
// units are cheap relative to stream captures, and their puts are
// idempotent writes of identical bytes, so duplicate work there costs
// replays, never generation passes.

func (d *dedupStore) GetRun(key string) (sim.Result, bool) { return d.st.GetRun(key) }
func (d *dedupStore) PutRun(key string, r sim.Result)      { d.st.PutRun(key, r) }
func (d *dedupStore) GetMix(key string, v any) bool        { return d.st.GetMix(key, v) }
func (d *dedupStore) PutMix(key string, v any)             { d.st.PutMix(key, v) }

var (
	_ harness.Store         = (*dedupStore)(nil)
	_ harness.StreamAborter = (*dedupStore)(nil)
)
