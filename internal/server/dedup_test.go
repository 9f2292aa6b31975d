package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// memStore is an in-memory harness.Store that holds recordings only.
// Reads of the blocked key wait until unblock is closed; entered is
// closed when the first such read starts.
type memStore struct {
	blocked string
	entered chan struct{}
	unblock chan struct{}
	once    sync.Once

	mu   sync.Mutex
	recs map[string]*trace.Recording
}

func newMemStore(blocked string) *memStore {
	return &memStore{
		blocked: blocked,
		entered: make(chan struct{}),
		unblock: make(chan struct{}),
		recs:    make(map[string]*trace.Recording),
	}
}

func (m *memStore) GetRecording(key string) (*trace.Recording, bool) {
	if key == m.blocked {
		m.once.Do(func() { close(m.entered) })
		<-m.unblock
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[key]
	return rec, ok
}

func (m *memStore) PutRecording(key string, rec *trace.Recording) {
	m.mu.Lock()
	m.recs[key] = rec
	m.mu.Unlock()
}

func (m *memStore) GetRun(string) (sim.Result, bool) { return sim.Result{}, false }
func (m *memStore) PutRun(string, sim.Result)        {}
func (m *memStore) GetMix(string, any) bool          { return false }
func (m *memStore) PutMix(string, any)               {}

// TestDedupStoreReadsDoNotSerialize: a recording read stuck in the
// wrapped store must not hold up a read of another, stored stream.
func TestDedupStoreReadsDoNotSerialize(t *testing.T) {
	ms := newMemStore("slow")
	ms.recs["fast"] = trace.NewRecording(0)
	d := newDedupStore(ms)

	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.GetRecording("slow")
	}()
	<-ms.entered
	fast := make(chan bool, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, ok := d.GetRecording("fast")
		fast <- ok
	}()
	select {
	case ok := <-fast:
		if !ok {
			t.Error("a stored recording read as a miss")
		}
	case <-time.After(10 * time.Second):
		t.Error("reading a stored stream waited on a blocked read of another stream")
	}
	close(ms.unblock)
}

// TestDedupStoreCapturesEachStreamOnce: of many concurrent readers of
// an unstored stream, one claims the capture; when that capture aborts,
// exactly one more claims it, and every other reader is served the
// recording the second capture stores.
func TestDedupStoreCapturesEachStreamOnce(t *testing.T) {
	d := newDedupStore(newMemStore(""))
	var claims atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, ok := d.GetRecording("s"); ok {
				return
			}
			if claims.Add(1) == 1 {
				d.AbortStream("s")
			} else {
				d.PutRecording("s", trace.NewRecording(0))
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := claims.Load(); n != 2 {
		t.Errorf("%d readers claimed the capture, want 2 (one aborted, one stored)", n)
	}
}
