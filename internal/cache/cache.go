// Package cache implements the simulated cache hierarchy of the
// Califorms evaluation (Table 3): set-associative, write-back,
// write-allocate caches with LRU replacement. The L1 data cache holds
// lines in califorms-bitvector format; L2, L3 and memory hold them in
// califorms-sentinel format, with format conversion performed at the
// L1 boundary on fills and spills (Figure 1, §5). Below L1 a line
// whose payload is zero travels as its 8-byte security mask: its
// sentinel image is a pure function of the mask, so L2, L3 and memory
// carry the mask and never run the conversion for it.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cacheline"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name    string
	Size    int // bytes
	Ways    int
	Latency int // access latency in cycles
}

// Sets returns the number of sets implied by size and associativity.
func (c LevelConfig) Sets() int { return c.Size / (cacheline.Size * c.Ways) }

// Validate checks the level geometry and returns a descriptive error:
// associativity within the packed-header bound, a positive size that
// divides evenly into sets of whole lines. Non-power-of-two set
// counts are legal (the set index falls back to a modulo); a zero set
// count is not. Construction (newLevel) enforces the same rules with
// a panic, so an invalid geometry that skips Validate still fails
// before any access is simulated rather than mid-run.
func (c LevelConfig) Validate() error {
	if c.Ways < 1 {
		return fmt.Errorf("cache: %s: %d ways, need >= 1", c.Name, c.Ways)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("cache: %s: %d ways exceeds the supported maximum of %d (the per-set recency state packs one 4-bit index per way)", c.Name, c.Ways, maxWays)
	}
	if c.Size <= 0 {
		return fmt.Errorf("cache: %s: size %d bytes, need > 0", c.Name, c.Size)
	}
	if c.Size%(cacheline.Size*c.Ways) != 0 {
		// This also rules out Sets() == 0: a positive size that divides
		// evenly holds at least one complete set.
		return fmt.Errorf("cache: %s: size %d bytes does not divide into %d-way sets of %dB lines", c.Name, c.Size, c.Ways, cacheline.Size)
	}
	if c.Latency < 0 {
		return fmt.Errorf("cache: %s: negative latency %d", c.Name, c.Latency)
	}
	return nil
}

// LevelStats counts per-level events.
type LevelStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses / (hits+misses), or 0 with no traffic.
func (s LevelStats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// maxWays bounds associativity: the per-set recency state packs one
// 4-bit way index per way into a single word.
const maxWays = 16

// setHdr is the packed replacement state of one set, sized to stay
// within a single host cache line (32 bytes): the LRU order as a
// move-to-front permutation of way indices (4 bits each, MRU in the
// low nibble), valid and dirty bitmaps, and an 8-bit signature per
// way that lets a set probe reject non-matching ways without
// touching the (much larger) tag array. A full miss scan therefore
// costs one header read instead of a walk over per-way entry
// structs.
type setHdr struct {
	perm uint64
	// sigLo/sigHi hold the per-way signatures as byte lanes (ways 0-7
	// and 8-15), so a set probe matches all ways with two SWAR
	// compares instead of a byte loop.
	sigLo uint64
	sigHi uint64
	valid uint16
	dirty uint16
	// zero marks ways whose payload is zero. Trace replay is dominated
	// by Touch ops that never carry data, so most simulated lines hold
	// all-zero payloads end to end; the flag lets every such line skip
	// its payload reads and writes entirely (the lines array is not
	// even touched). In L1 a zero way is the canonical zero line. In
	// L2 and L3 it is the line Spill(Bitvector{Mask: m}), with m in
	// the level's masks array — m == 0 being the canonical zero line —
	// so a califormed line with no data moves as 8 bytes. A zero way's
	// slot in the lines array holds an arbitrary stale value and must
	// never be read.
	zero uint16
}

const (
	lsbBytes   = 0x0101010101010101
	msbBytes   = 0x8080808080808080
	lsbNibbles = 0x1111111111111111
	msbNibbles = 0x8888888888888888
)

// byteMatches returns a mask with bit 8w+7 set for every byte lane w
// of word equal to the broadcast pattern. The zero-byte detection has
// no false negatives; false positives (possible only above a true
// match) are filtered by the caller's tag compare.
func byteMatches(word, broadcast uint64) uint64 {
	x := word ^ broadcast
	return (x - lsbBytes) & ^x & msbBytes
}

// permInit is the identity permutation: way w at recency position w.
const permInit = 0xFEDCBA9876543210

// sigOf hashes a line index to its scan signature. Collisions only
// cost a redundant tag compare.
func sigOf(lineIdx uint64) uint8 {
	return uint8((lineIdx * 0x9E3779B97F4A7C15) >> 56)
}

// mtf moves the way at recency position p to the front of the
// permutation, preserving the relative order of everything else —
// exactly the effect a monotonic LRU-stamp refresh has on the
// stamp ordering.
func mtf(perm uint64, p, w int) uint64 {
	keep := perm &^ (uint64(1)<<uint(4*(p+1)) - 1)
	low := perm & (uint64(1)<<uint(4*p) - 1)
	return keep | low<<4 | uint64(w)
}

// permPos returns the recency position of way w via SWAR nibble
// matching: the detector never misses the (unique) true match, and
// candidate positions are verified, so borrow-induced false
// positives above it are harmless.
func permPos(perm uint64, w int) int {
	x := perm ^ uint64(w)*lsbNibbles
	for m := (x - lsbNibbles) & ^x & msbNibbles; ; m &= m - 1 {
		p := bits.TrailingZeros64(m) >> 2
		if int(perm>>uint(4*p))&0xf == w {
			return p
		}
	}
}

// level is a generic set-associative write-back cache over a line
// representation type (Bitvector for L1, Sentinel for L2/L3), stored
// struct-of-arrays: per-set packed headers, a tag array and the line
// payloads are parallel, indexed by slot = set*ways + way.
type level[L any] struct {
	cfg   LevelConfig
	ways  int
	nsets int
	// setMask is nsets-1 when nsets is a power of two (every Table 3
	// configuration), letting setIndex avoid the modulo; waysShift
	// likewise replaces the slot/ways division.
	setMask   uint64
	waysShift int
	hdrs      []setHdr
	tags      []uint64
	lines     []L
	// masks holds the security mask of each zero way (L2/L3 only; nil
	// in L1), parallel to lines.
	masks []cacheline.SecMask
	// lastLine/lastSlot remember the most recent hit. The
	// pair is self-validating (tag and valid bit are re-checked), so
	// no invalidation hook is needed; it short-circuits the set scan
	// for the extremely common touch-the-same-line-again case.
	lastLine uint64
	lastSlot int
	Stats    LevelStats
}

// levelPool recycles one level geometry's backing arrays across
// machines. Sweeps build and discard one machine per run unit; the
// line payload arrays (megabytes for an L3) dominate the build cost
// purely through allocation zeroing, yet never need to start zeroed —
// every read of tags and lines is gated by a header valid bit, and
// headers are reinitialized on reuse. One pool per (sets, ways)
// geometry per line representation.
type levelPool[L any] struct {
	mu    sync.Mutex
	pools map[[2]int]*sync.Pool
	// masked pools (the sentinel levels) also carry a masks array.
	masked bool
}

type levelArrays[L any] struct {
	hdrs  []setHdr
	tags  []uint64
	lines []L
	masks []cacheline.SecMask
}

func (p *levelPool[L]) pool(nsets, ways int) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pools == nil {
		p.pools = make(map[[2]int]*sync.Pool)
	}
	key := [2]int{nsets, ways}
	sp := p.pools[key]
	if sp == nil {
		sp = &sync.Pool{}
		p.pools[key] = sp
	}
	return sp
}

func (p *levelPool[L]) get(nsets, ways int) *levelArrays[L] {
	if a, ok := p.pool(nsets, ways).Get().(*levelArrays[L]); ok {
		// Reset replacement state; stale tags, signatures and line
		// payloads are unreachable behind the cleared valid bits.
		for i := range a.hdrs {
			a.hdrs[i].perm = permInit
			a.hdrs[i].valid = 0
			a.hdrs[i].dirty = 0
			a.hdrs[i].zero = 0
		}
		return a
	}
	a := &levelArrays[L]{
		hdrs:  make([]setHdr, nsets),
		tags:  make([]uint64, nsets*ways),
		lines: make([]L, nsets*ways),
	}
	if p.masked {
		a.masks = make([]cacheline.SecMask, nsets*ways)
	}
	for i := range a.hdrs {
		a.hdrs[i].perm = permInit
	}
	return a
}

func (p *levelPool[L]) put(l *level[L]) {
	if l == nil || l.hdrs == nil {
		return
	}
	p.pool(l.nsets, l.ways).Put(&levelArrays[L]{hdrs: l.hdrs, tags: l.tags, lines: l.lines, masks: l.masks})
	l.hdrs, l.tags, l.lines, l.masks = nil, nil, nil, nil
}

var (
	bitvectorArrays levelPool[cacheline.Bitvector]
	sentinelArrays  = levelPool[cacheline.Sentinel]{masked: true}
)

func newLevel[L any](cfg LevelConfig, pool *levelPool[L]) *level[L] {
	// Validated construction: an invalid geometry fails here, before
	// any simulation starts, with the descriptive Validate error —
	// never as a cryptic index or divide fault mid-run. Callers that
	// want an error instead of a panic (the cmds, the machine
	// registry) run Validate themselves first.
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	n := cfg.Sets()
	a := pool.get(n, cfg.Ways)
	l := &level[L]{
		cfg:       cfg,
		ways:      cfg.Ways,
		nsets:     n,
		waysShift: -1,
		hdrs:      a.hdrs,
		tags:      a.tags,
		lines:     a.lines,
		masks:     a.masks,
		lastSlot:  -1,
	}
	if n > 0 && n&(n-1) == 0 {
		l.setMask = uint64(n - 1)
	}
	if w := cfg.Ways; w > 0 && w&(w-1) == 0 {
		l.waysShift = bits.TrailingZeros(uint(w))
	}
	return l
}

// setIndex returns lineIdx's set.
func (l *level[L]) setIndex(lineIdx uint64) int {
	if l.setMask != 0 || l.nsets == 1 {
		return int(lineIdx & l.setMask)
	}
	return int(lineIdx % uint64(l.nsets))
}

// setWay splits a slot into its set and way.
func (l *level[L]) setWay(slot int) (set, way int) {
	if l.waysShift >= 0 {
		set = slot >> uint(l.waysShift)
		return set, slot - set<<uint(l.waysShift)
	}
	return slot / l.ways, slot % l.ways
}

// touch refreshes the recency of way w in h (an LRU-stamp update).
// The two most recent ways cover nearly every hit (object fields
// alternate between one or two lines per set), so positions 0 and 1
// bypass the permutation scan.
func (l *level[L]) touch(h *setHdr, w int) {
	perm := h.perm
	if int(perm)&0xf == w {
		return // already MRU
	}
	if int(perm>>4)&0xf == w {
		// Position 1: swap the two low nibbles.
		h.perm = perm&^uint64(0xff) | perm&0xf<<4 | uint64(w)
		return
	}
	if int(perm>>8)&0xf == w {
		// Position 2: rotate the three low nibbles.
		h.perm = perm&^uint64(0xfff) | perm&0xff<<4 | uint64(w)
		return
	}
	h.perm = mtf(perm, permPos(perm, w), w)
}

// acquireHdr resolves lineIdx in a single set scan: on a hit it
// refreshes the way's recency and returns the slot; on a miss it
// returns the slot an insert should fill — the first invalid way in
// way order, else the LRU way — without writing it, so callers can
// consume the evicted line in place. The caller owns the miss slot
// until its place call; the victim choice made here stays valid as
// long as the set is untouched in between, which every call site
// guarantees (lower-level traffic never touches the acquiring set).
// The set header and way are returned alongside so fused callers can
// read and update the slot's metadata (zero flag, mask check, dirty
// bit) without recomputing set/way per step.
func (l *level[L]) acquireHdr(lineIdx uint64) (slot int, h *setHdr, way int, hit, evicted bool) {
	if l.lastLine == lineIdx && l.lastSlot >= 0 && l.tags[l.lastSlot] == lineIdx {
		set, w := l.setWay(l.lastSlot)
		h = &l.hdrs[set]
		if h.valid&(1<<uint(w)) != 0 {
			l.touch(h, w)
			return l.lastSlot, h, w, true, false
		}
	}
	set := l.setIndex(lineIdx)
	h = &l.hdrs[set]
	base := set * l.ways
	bsig := uint64(sigOf(lineIdx)) * lsbBytes
	for m := byteMatches(h.sigLo, bsig); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m) >> 3
		if h.valid&(1<<uint(w)) != 0 && l.tags[base+w] == lineIdx {
			l.touch(h, w)
			l.lastLine, l.lastSlot = lineIdx, base+w
			return base + w, h, w, true, false
		}
	}
	if l.ways > 8 {
		for m := byteMatches(h.sigHi, bsig); m != 0; m &= m - 1 {
			w := 8 + bits.TrailingZeros64(m)>>3
			if h.valid&(1<<uint(w)) != 0 && l.tags[base+w] == lineIdx {
				l.touch(h, w)
				l.lastLine, l.lastSlot = lineIdx, base+w
				return base + w, h, w, true, false
			}
		}
	}
	if inv := ^h.valid & (uint16(1)<<uint(l.ways) - 1); inv != 0 {
		w := bits.TrailingZeros16(inv)
		return base + w, h, w, false, false
	}
	l.Stats.Evictions++
	w := int(h.perm>>uint(4*(l.ways-1))) & 0xf
	return base + w, h, w, false, true
}

// probe locates lineIdx without updating recency state
// (invalidation paths).
func (l *level[L]) probe(lineIdx uint64) (slot int, ok bool) {
	set := l.setIndex(lineIdx)
	h := &l.hdrs[set]
	base := set * l.ways
	bsig := uint64(sigOf(lineIdx)) * lsbBytes
	for m := byteMatches(h.sigLo, bsig); m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m) >> 3
		if h.valid&(1<<uint(w)) != 0 && l.tags[base+w] == lineIdx {
			return base + w, true
		}
	}
	if l.ways > 8 {
		for m := byteMatches(h.sigHi, bsig); m != 0; m &= m - 1 {
			w := 8 + bits.TrailingZeros64(m)>>3
			if h.valid&(1<<uint(w)) != 0 && l.tags[base+w] == lineIdx {
				return base + w, true
			}
		}
	}
	return 0, false
}

// placeHdr fills a slot previously returned by acquireHdr with a
// materialized payload, reusing the header handle the acquire already
// resolved.
func (l *level[L]) placeHdr(slot int, h *setHdr, way int, lineIdx uint64, line *L, dirty bool) {
	l.placeMeta(slot, h, way, lineIdx, dirty, false)
	l.lines[slot] = *line
}

// placeZeroHdr fills a slot with the canonical zero line; the payload
// array is not touched.
func (l *level[L]) placeZeroHdr(slot int, h *setHdr, way int, lineIdx uint64, dirty bool) {
	l.placeMeta(slot, h, way, lineIdx, dirty, true)
}

// overwrite replaces the payload of a hit slot in a masked level.
func (l *level[L]) overwrite(slot int, hd *setHdr, way int, s *L, m cacheline.SecMask, dirty bool) {
	bit := uint16(1) << uint(way)
	if s == nil {
		hd.zero |= bit
		l.masks[slot] = m
	} else {
		hd.zero &^= bit
		l.lines[slot] = *s
	}
	if dirty {
		hd.dirty |= bit
	}
}

// install fills an acquired miss slot of a masked level; a zero-payload
// line leaves the payload array untouched.
func (l *level[L]) install(slot int, hd *setHdr, way int, lineIdx uint64, s *L, m cacheline.SecMask, dirty bool) {
	if s == nil {
		l.placeMeta(slot, hd, way, lineIdx, dirty, true)
		l.masks[slot] = m
	} else {
		l.placeHdr(slot, hd, way, lineIdx, s, dirty)
	}
}

// lineAt returns the line held in a valid slot of a masked level, in
// the (s, m) form: a pointer to the materialized line, or nil and the
// zero-payload line's mask.
func (l *level[L]) lineAt(slot int, hd *setHdr, way int) (*L, cacheline.SecMask) {
	if hd.zero&(1<<uint(way)) != 0 {
		return nil, l.masks[slot]
	}
	return &l.lines[slot], 0
}

func (l *level[L]) placeMeta(slot int, h *setHdr, way int, lineIdx uint64, dirty, zero bool) {
	bit := uint16(1) << uint(way)
	h.valid |= bit
	if dirty {
		h.dirty |= bit
	} else {
		h.dirty &^= bit
	}
	if zero {
		h.zero |= bit
	} else {
		h.zero &^= bit
	}
	sig := uint64(sigOf(lineIdx))
	if way < 8 {
		sh := uint(8 * way)
		h.sigLo = h.sigLo&^(0xff<<sh) | sig<<sh
	} else {
		sh := uint(8 * (way - 8))
		h.sigHi = h.sigHi&^(0xff<<sh) | sig<<sh
	}
	l.touch(h, way)
	l.tags[slot] = lineIdx
}

// zeroAt reports whether an L1 slot holds the canonical zero line.
func (l *level[L]) zeroAt(slot int) bool {
	set, way := l.setWay(slot)
	return l.hdrs[set].zero&(1<<uint(way)) != 0
}

// materialize turns a zero slot into an explicit zero payload so a
// functional writer can modify it in place.
func (l *level[L]) materialize(slot int) {
	set, way := l.setWay(slot)
	bit := uint16(1) << uint(way)
	if l.hdrs[set].zero&bit != 0 {
		l.hdrs[set].zero &^= bit
		var z L
		l.lines[slot] = z
	}
}

// Per-slot accessors for the hierarchy.
func (l *level[L]) validAt(slot int) bool {
	set, way := l.setWay(slot)
	return l.hdrs[set].valid&(1<<uint(way)) != 0
}

func (l *level[L]) markDirty(slot int) {
	set, way := l.setWay(slot)
	l.hdrs[set].dirty |= 1 << uint(way)
}

func (l *level[L]) clearValid(slot int) {
	set, way := l.setWay(slot)
	l.hdrs[set].valid &^= 1 << uint(way)
}
