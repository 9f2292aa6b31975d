// Package store is the content-addressed on-disk result fabric behind
// the sweep engine: captured trace.Recordings and finished simulation
// results, keyed by the full determinant set of the work they cache —
// benchmark, instrumented configuration, machine description,
// experiment parameters and the simulator's code version — so a
// repeat sweep is a cache lookup and an incremental sweep computes
// only its delta.
//
// The design leans entirely on the engine's determinism contract: a
// cell's result and a stream's recording are pure functions of their
// key, which is what makes entries safely shareable across runs,
// worker counts, processes and users. The store therefore never has
// to validate semantic freshness beyond the key itself.
//
// # Layout and integrity
//
//	<dir>/<code-version>/<kind>/<hh>/<sha256(key)>
//
// Each entry file carries a format magic, the full key (collision
// paranoia and debuggability), a SHA-256 checksum of the payload, and
// the payload. Writes are atomic (temp file + rename into place), so
// readers never observe a half-written entry and concurrent writers
// of the same key are safe: last rename wins with identical content.
// Reads are corruption-tolerant by contract: a missing, truncated,
// bit-flipped or otherwise undecodable entry is a miss, never an
// error — the scheduler recomputes and overwrites it.
//
// # Invalidation and GC
//
// The code version namespaces the whole tree: bumping CodeVersion
// orphans every existing entry at once (simulation semantics changed,
// so every cached value is suspect). GC removes orphaned version
// trees entirely and, given a byte budget, evicts current-version
// entries oldest-first — except entries the running process has read
// or written, which are pinned for the life of the Store handle, so a
// sweep can never lose an entry it still needs to a concurrent GC in
// the same process.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CodeVersion namespaces every entry. Bump it whenever a change can
// alter any simulated number — cache/core timing, allocator layout,
// workload generation, policy semantics — so stale results can never
// be served as fresh. CI approximates the same invalidation by keying
// its store cache on a hash of the Go sources.
const CodeVersion = "pr7-store-1"

// entryMagic guards the entry file format itself.
const entryMagic = "califorms-store/1\n"

// Entry kinds. Kind strings become directory names.
const (
	// KindRun holds one finished sim.Result (JSON payload).
	KindRun = "run"
	// KindRec holds one captured trace.Recording (binary payload).
	KindRec = "rec"
	// KindMix holds one multicore mix unit result (JSON payload).
	KindMix = "mix"
)

// Options configures Open.
type Options struct {
	// ReadOnly serves hits but never writes (CI forks that must not
	// mutate a shared cache, -store-readonly).
	ReadOnly bool
	// Version overrides CodeVersion (tests exercising invalidation).
	Version string
}

// Counters is a point-in-time snapshot of the store's traffic.
type Counters struct {
	Hits, Misses, Puts      uint64
	BytesRead, BytesWritten uint64
}

// Store is one open handle on the on-disk cache. All methods are safe
// for concurrent use.
type Store struct {
	root     string // user-supplied directory
	dir      string // root/<version>
	version  string
	readonly bool

	hits, misses, puts, bytesRead, bytesWritten atomic.Uint64

	// mu guards pinned: the set of entry paths this handle has read or
	// written, which GC must not evict while the handle lives.
	mu     sync.Mutex
	pinned map[string]bool
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	version := opts.Version
	if version == "" {
		version = CodeVersion
	}
	s := &Store{
		root:     dir,
		dir:      filepath.Join(dir, version),
		version:  version,
		readonly: opts.ReadOnly,
		pinned:   make(map[string]bool),
	}
	if !opts.ReadOnly {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return s, nil
}

// Dir returns the user-supplied root directory.
func (s *Store) Dir() string { return s.root }

// ReadOnly reports whether writes are disabled.
func (s *Store) ReadOnly() bool { return s.readonly }

// Counters returns a snapshot of the traffic counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// entryPath maps (kind, key) to the entry file.
func (s *Store) entryPath(kind, key string) string {
	h := sha256.Sum256([]byte(key))
	hx := hex.EncodeToString(h[:])
	return filepath.Join(s.dir, kind, hx[:2], hx)
}

func (s *Store) pin(path string) {
	s.mu.Lock()
	s.pinned[path] = true
	s.mu.Unlock()
}

// isTransient classifies syscall-level errors worth retrying: an
// interrupted call or a momentarily unavailable resource (EINTR,
// EAGAIN) and a short write on a full-but-recovering disk. Everything
// else — and in particular a frame that read fine but fails to decode
// — is never retried: corruption is strictly a miss.
func isTransient(err error) bool {
	return errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, io.ErrShortWrite)
}

// retryTransient runs op, retrying up to three attempts with a small
// jittered backoff when the error is syscall-transient. The jitter
// desynchronizes concurrent retriers; it never influences results,
// only when a retry lands.
func retryTransient(op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= 2 || !isTransient(err) {
			return err
		}
		time.Sleep(time.Duration(200+rand.Intn(800)) * time.Microsecond * time.Duration(attempt+1))
	}
}

// Get returns the payload stored under (kind, key). Every persistent
// failure mode — absent, truncated, corrupted, wrong key — is a miss;
// transient syscall errors are retried a bounded number of times
// before being declared one.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	path := s.entryPath(kind, key)
	var data []byte
	err := retryTransient(func() error {
		if faultinject.Fire("store.read.eintr") {
			// Wraps EINTR so the retry classifier treats the injected
			// fault exactly like the real one.
			return fmt.Errorf("faultinject: store.read.eintr: %w", syscall.EINTR)
		}
		var rerr error
		data, rerr = os.ReadFile(path)
		return rerr
	})
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok := decodeEntry(data, key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(data)))
	s.pin(path)
	return payload, true
}

// AtomicWriteFile writes data to path atomically: the bytes land in a
// temp file in the destination directory, are fsync'd, and the temp
// file is renamed into place — so readers never observe a
// half-written file and a crash mid-write leaves the previous content
// (or nothing) behind, never a torn one. It is the shared write
// helper behind store entries, the sweep journal's sibling files and
// the committed report baselines (BENCH/CALIB_califorms.json), whose
// in-place os.WriteFile predecessors a crash could corrupt.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var tmp *os.File
	err := retryTransient(func() error {
		if faultinject.Fire("store.write.open") {
			return faultinject.InjectedError{Point: "store.write.open"}
		}
		var terr error
		tmp, terr = os.CreateTemp(filepath.Dir(path), ".tmp-*")
		return terr
	})
	if err != nil {
		return err
	}
	// Injected write faults model the crash modes a torn disk state
	// leaves behind: a short write that still gets renamed (a temp
	// file renamed before its tail hit the disk), a bit flip inside
	// the payload, and a disk-full failure. The first two MUST be
	// caught by the reader's frame checksum; the third leaves no file
	// at all.
	if faultinject.Fire("store.write.enospc") {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("faultinject: store.write.enospc: %w", syscall.ENOSPC)
	}
	if faultinject.Fire("store.write.short") && len(data) > 1 {
		data = data[:len(data)/2]
	} else if faultinject.Fire("store.write.torn") && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x40
	}
	err = retryTransient(func() error {
		if _, werr := tmp.Write(data); werr != nil {
			return werr
		}
		return nil
	})
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := os.Chmod(tmp.Name(), perm); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Put stores payload under (kind, key) atomically via AtomicWriteFile,
// so concurrent readers see either the old entry or the complete new
// one. No-op on a read-only store. Errors are returned for
// observability but callers treat the store as best-effort: a failed
// Put leaves an absent (or old) entry, which later reads treat as a
// miss and recompute.
func (s *Store) Put(kind, key string, payload []byte) error {
	if s.readonly {
		return nil
	}
	path := s.entryPath(kind, key)
	data := encodeEntry(key, payload)
	if err := AtomicWriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	s.bytesWritten.Add(uint64(len(data)))
	s.pin(path)
	return nil
}

// encodeEntry frames a payload: magic, key length, key, payload
// checksum, payload.
func encodeEntry(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(entryMagic)+4+len(key)+len(sum)+len(payload))
	out = append(out, entryMagic...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(key)))
	out = append(out, n[:]...)
	out = append(out, key...)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out
}

// decodeEntry verifies the frame and returns the payload.
func decodeEntry(data []byte, key string) ([]byte, bool) {
	if len(data) < len(entryMagic)+4 || string(data[:len(entryMagic)]) != entryMagic {
		return nil, false
	}
	p := data[len(entryMagic):]
	klen := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	if klen < 0 || len(p) < klen+sha256.Size {
		return nil, false
	}
	if string(p[:klen]) != key {
		return nil, false
	}
	p = p[klen:]
	var sum [sha256.Size]byte
	copy(sum[:], p[:sha256.Size])
	payload := p[sha256.Size:]
	if sha256.Sum256(payload) != sum {
		return nil, false
	}
	return payload, true
}

// ---- typed helpers ----

// GetRun returns a cached simulation result. With the recording and
// mix helpers below, the method set satisfies harness.Store, so an
// open Store can be installed directly as a sweep pool's store.
func (s *Store) GetRun(key string) (sim.Result, bool) {
	var r sim.Result
	if !s.getJSON(KindRun, key, &r) {
		return sim.Result{}, false
	}
	return r, true
}

// PutRun stores a finished simulation result.
func (s *Store) PutRun(key string, r sim.Result) { s.putJSON(KindRun, key, r) }

// GetRecording returns a cached op-stream recording.
func (s *Store) GetRecording(key string) (*trace.Recording, bool) {
	data, ok := s.Get(KindRec, key)
	if !ok {
		return nil, false
	}
	rec := trace.NewRecording(0)
	if err := rec.UnmarshalBinary(data); err != nil {
		return nil, false
	}
	return rec, true
}

// PutRecording stores a captured op-stream recording.
func (s *Store) PutRecording(key string, rec *trace.Recording) {
	data, err := rec.MarshalBinary()
	if err != nil {
		return
	}
	s.Put(KindRec, key, data)
}

// GetMix / PutMix cache one multicore mix unit (any JSON-serializable
// result shape; the harness stores multicore.RunResult).
func (s *Store) GetMix(key string, v any) bool { return s.getJSON(KindMix, key, v) }
func (s *Store) PutMix(key string, v any)      { s.putJSON(KindMix, key, v) }

func (s *Store) getJSON(kind, key string, v any) bool {
	data, ok := s.Get(kind, key)
	if !ok {
		return false
	}
	return json.Unmarshal(data, v) == nil
}

func (s *Store) putJSON(kind, key string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.Put(kind, key, data)
}

// ---- GC ----

// GCStats reports what a GC pass removed.
type GCStats struct {
	RemovedEntries int
	FreedBytes     int64
	// RemovedVersions counts orphaned code-version trees deleted.
	RemovedVersions int
}

// GC reclaims space: orphaned code-version trees are removed
// entirely, leftover temp files are swept, and — when maxBytes >= 0 —
// current-version entries are evicted oldest-first until the tree
// fits the budget. Entries this handle has read or written are pinned
// and never evicted, so a running sweep keeps everything it still
// needs. A negative maxBytes skips size-based eviction.
func (s *Store) GC(maxBytes int64) (GCStats, error) {
	var st GCStats
	if s.readonly {
		return st, fmt.Errorf("store: GC on a read-only store")
	}
	// Orphaned versions.
	roots, err := os.ReadDir(s.root)
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	for _, e := range roots {
		if !e.IsDir() || e.Name() == s.version {
			continue
		}
		if err := os.RemoveAll(filepath.Join(s.root, e.Name())); err == nil {
			st.RemovedVersions++
		}
	}
	// Inventory the current version.
	type entry struct {
		path  string
		size  int64
		mtime int64
	}
	var entries []entry
	var total int64
	filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		if len(filepath.Base(path)) > 4 && filepath.Base(path)[:5] == ".tmp-" {
			// Leftover from a crashed writer; safe to sweep (live
			// writers rename within the same Put call).
			if os.Remove(path) == nil {
				st.FreedBytes += info.Size()
			}
			return nil
		}
		entries = append(entries, entry{path, info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
		return nil
	})
	if maxBytes < 0 {
		return st, nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	s.mu.Lock()
	pinned := make(map[string]bool, len(s.pinned))
	for p := range s.pinned {
		pinned[p] = true
	}
	s.mu.Unlock()
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if pinned[e.path] {
			continue
		}
		if os.Remove(e.path) == nil {
			st.RemovedEntries++
			st.FreedBytes += e.size
			total -= e.size
		}
	}
	return st, nil
}
