package harness

// The harness's view of the content-addressed result store
// (internal/store). The stream handle (stream.go) layers it into the
// sweep engine's three reuse tiers.

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Store is the persistence seam the sweep scheduler drives: the one
// a Pool holds (Pool.SetStore) and every tier of its sweeps reads and
// writes, direct runs included. *store.Store satisfies it; harness
// only names the interface so the scheduling layer stays free of
// on-disk concerns. Implementations must be safe for concurrent use,
// and every getter must treat any internal failure as a miss.
type Store interface {
	// GetRun / PutRun move finished cell results, keyed by
	// sim.RunKey. Puts are best-effort: a failed write only means the
	// cell recomputes next time.
	GetRun(key string) (sim.Result, bool)
	PutRun(key string, r sim.Result)
	// GetRecording / PutRecording move captured op streams, keyed by
	// sim.StreamKey.
	GetRecording(key string) (*trace.Recording, bool)
	PutRecording(key string, rec *trace.Recording)
	// GetMix / PutMix move finished multicore results as JSON, keyed
	// by Mix.unitKey. GetMix decodes into v and reports a hit.
	GetMix(key string, v any) bool
	PutMix(key string, v any)
}

// StreamAborter is an optional Store extension for stores that track
// in-flight stream captures (the server's singleflight layer).
// AbortStream releases any in-flight claim on the stream key so that a
// waiter can retry after the claiming capture panicked. Stores without
// in-flight state simply don't implement it.
type StreamAborter interface {
	AbortStream(key string)
}

// abortStream releases st's in-flight claim on key, if st tracks one.
func abortStream(st Store, key string) {
	if st == nil || key == "" {
		return
	}
	if a, ok := st.(StreamAborter); ok {
		a.AbortStream(key)
	}
}
