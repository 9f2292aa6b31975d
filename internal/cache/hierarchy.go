package cache

import (
	"fmt"

	"repro/internal/cacheline"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Config describes the simulated memory hierarchy.
type Config struct {
	L1, L2, L3 LevelConfig
	// MemLatency is the DRAM access latency in cycles.
	MemLatency int
	// ExtraL2L3 adds cycles to every L2 and L3 access; Figure 10
	// evaluates Califorms pessimistically with ExtraL2L3 = 1.
	ExtraL2L3 int
	// SpillFillLatency is the added latency when a *califormed* line
	// crosses the L1/L2 boundary and is format-converted. The paper's
	// VLSI results show this can be fully hidden (0); it is kept as a
	// knob for sensitivity studies.
	SpillFillLatency int
}

// Validate checks every level's geometry plus the hierarchy-wide
// knobs, returning the first descriptive error. It is the pre-flight
// check run by the machine registry and the command-line tools so a
// bad configuration is reported before any simulation starts;
// construction itself (New, NewShared, NewSharedL3) enforces the same
// rules with a panic.
func (c Config) Validate() error {
	for _, lvl := range []LevelConfig{c.L1, c.L2, c.L3} {
		if err := lvl.Validate(); err != nil {
			return err
		}
	}
	if c.MemLatency <= 0 {
		return fmt.Errorf("cache: DRAM latency %d cycles, need > 0", c.MemLatency)
	}
	if c.ExtraL2L3 < 0 {
		return fmt.Errorf("cache: negative ExtraL2L3 latency %d", c.ExtraL2L3)
	}
	if c.SpillFillLatency < 0 {
		return fmt.Errorf("cache: negative spill/fill latency %d", c.SpillFillLatency)
	}
	return nil
}

// Westmere returns the Table 3 configuration: an Intel Westmere-like
// hierarchy at 2.27GHz.
func Westmere() Config {
	return Config{
		L1:         LevelConfig{Name: "L1D", Size: 32 << 10, Ways: 8, Latency: 4},
		L2:         LevelConfig{Name: "L2", Size: 256 << 10, Ways: 8, Latency: 7},
		L3:         LevelConfig{Name: "L3", Size: 2 << 20, Ways: 16, Latency: 27},
		MemLatency: 200,
	}
}

// Level identifiers reported in AccessResult.
const (
	LvlL1  = 1
	LvlL2  = 2
	LvlL3  = 3
	LvlMem = 4
)

// AccessResult reports the outcome of one hierarchy operation.
type AccessResult struct {
	// Cycles is the total latency of the access.
	Cycles int
	// Level is the deepest level that serviced the access
	// (LvlL1..LvlMem).
	Level int
	// Exc is the Califorms exception raised, if any. Exceptions are
	// precise: a violating store or CFORM does not commit.
	Exc *isa.Exception
}

// HierStats aggregates Califorms-specific hierarchy events.
type HierStats struct {
	// Spills and Fills count L1<->L2 format conversions of califormed
	// lines (natural lines convert trivially and are not counted).
	Spills uint64
	Fills  uint64
	// CForms counts executed CFORM instructions.
	CForms uint64
	// Violations counts raised Califorms exceptions.
	Violations uint64
}

// Hierarchy is the cache model of one core in front of main memory:
// a private L1 and L2, plus an L3 that is either private (cache.New,
// the paper's single-threaded SPEC evaluation) or shared with other
// cores (NewShared, the multicore model). Not safe for concurrent
// use; a shared L3's cores must be advanced on one goroutine.
type Hierarchy struct {
	cfg Config
	l1  *level[cacheline.Bitvector]
	l2  *level[cacheline.Sentinel]
	// l3 and mem alias shared's level and memory: the hot paths below
	// read them without an indirection through the SharedL3.
	l3     *level[cacheline.Sentinel]
	mem    *mem.Memory
	shared *SharedL3
	ownL3  bool
	coreID int
	// l3pc points at this core's accounting slot in the shared L3.
	l3pc *LevelStats

	Stats HierStats
}

// New builds a single-core hierarchy over the given memory, with a
// private L3. Level backing arrays come from a recycling pool;
// short-lived hierarchies (one per sweep unit) should hand them back
// with Release once their statistics have been read.
func New(cfg Config, m *mem.Memory) *Hierarchy {
	h := NewShared(cfg, NewSharedL3(cfg.L3, m, 1), 0)
	h.ownL3 = true
	return h
}

// NewShared builds one core's private L1/L2 hierarchy attached to an
// existing shared L3 (which also supplies the main memory). coreID
// selects the core's accounting slot in the shared L3; the L3
// geometry of cfg is ignored in favor of the shared level's.
func NewShared(cfg Config, l3 *SharedL3, coreID int) *Hierarchy {
	return &Hierarchy{
		cfg:    cfg,
		l1:     newLevel(cfg.L1, &bitvectorArrays),
		l2:     newLevel(cfg.L2, &sentinelArrays),
		l3:     l3.l3,
		mem:    l3.mem,
		shared: l3,
		coreID: coreID,
		l3pc:   &l3.perCore[coreID],
	}
}

// Release returns the hierarchy's level arrays to the recycling pool.
// A private L3 (cache.New) is released along with L1/L2; a shared L3
// is left alone — its owner releases it once every attached core is
// done. The hierarchy must not be used afterwards; callers that keep
// machines alive (examples, interactive tools) simply never call it.
func (h *Hierarchy) Release() {
	bitvectorArrays.put(h.l1)
	sentinelArrays.put(h.l2)
	if h.ownL3 {
		h.shared.Release()
	}
	h.l1, h.l2, h.l3 = nil, nil, nil
}

// SharedL3 returns the (possibly shared) last-level cache.
func (h *Hierarchy) SharedL3() *SharedL3 { return h.shared }

// CoreID returns this hierarchy's slot in the shared L3 accounting.
func (h *Hierarchy) CoreID() int { return h.coreID }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Memory returns the backing memory.
func (h *Hierarchy) Memory() *mem.Memory { return h.mem }

// L1Stats, L2Stats, L3Stats expose per-level counters. L3Stats is the
// aggregate over every core sharing the L3 (for a private L3 the two
// views coincide).
func (h *Hierarchy) L1Stats() LevelStats { return h.l1.Stats }
func (h *Hierarchy) L2Stats() LevelStats { return h.l2.Stats }
func (h *Hierarchy) L3Stats() LevelStats { return h.l3.Stats }

// L3CoreStats returns this core's own share of the L3 traffic (hits,
// misses and writebacks; evictions are aggregate-only, see SharedL3).
func (h *Hierarchy) L3CoreStats() LevelStats { return *h.l3pc }

// writeBackL2 installs a line into L2, cascading evictions downward.
// Clean victims are dropped: with write-back propagation a clean copy
// always matches the level below; victims are written back from their
// slot before it is overwritten, so no line is ever copied through an
// intermediate. Here and below L1 a line is passed as (s, m): s points
// at a materialized sentinel line, or is nil for the zero-payload line
// Spill(Bitvector{Mask: m}), which is carried as its mask alone.
func (h *Hierarchy) writeBackL2(lineIdx uint64, s *cacheline.Sentinel, m cacheline.SecMask, dirty bool) {
	slot, hd, way, hit, evicted := h.l2.acquireHdr(lineIdx)
	if hit {
		h.l2.overwrite(slot, hd, way, s, m, dirty)
		return
	}
	h.placeL2(slot, hd, way, evicted, lineIdx, s, m, dirty)
}

// placeL2 fills an acquired L2 miss slot, first cascading a dirty
// victim downward from its slot (no line is copied through an
// intermediate). hd/way are the slot's handles from acquireHdr; the
// victim's writeback below touches only L3 and memory, so they stay
// valid.
func (h *Hierarchy) placeL2(slot int, hd *setHdr, way int, evicted bool, lineIdx uint64, s *cacheline.Sentinel, m cacheline.SecMask, dirty bool) {
	if evicted && hd.dirty&(1<<uint(way)) != 0 {
		h.l2.Stats.Writebacks++
		vs, vm := h.l2.lineAt(slot, hd, way)
		h.writeBackL3(h.l2.tags[slot], vs, vm, true)
	}
	h.l2.install(slot, hd, way, lineIdx, s, m, dirty)
}

func (h *Hierarchy) writeBackL3(lineIdx uint64, s *cacheline.Sentinel, m cacheline.SecMask, dirty bool) {
	slot, hd, way, hit, evicted := h.l3.acquireHdr(lineIdx)
	if hit {
		h.l3.overwrite(slot, hd, way, s, m, dirty)
		return
	}
	h.placeL3(slot, hd, way, evicted, lineIdx, s, m, dirty)
}

// placeL3 mirrors placeL2 one level down.
func (h *Hierarchy) placeL3(slot int, hd *setHdr, way int, evicted bool, lineIdx uint64, s *cacheline.Sentinel, m cacheline.SecMask, dirty bool) {
	if evicted && hd.dirty&(1<<uint(way)) != 0 {
		h.l3.Stats.Writebacks++
		h.l3pc.Writebacks++
		h.writeBackMem(slot, hd, way)
	}
	h.l3.install(slot, hd, way, lineIdx, s, m, dirty)
}

// writeBackMem writes a valid L3 slot's line to memory.
func (h *Hierarchy) writeBackMem(slot int, hd *setHdr, way int) {
	if vs, vm := h.l3.lineAt(slot, hd, way); vs == nil {
		h.mem.WriteMask(h.l3.tags[slot], vm)
	} else {
		h.mem.WriteLine(h.l3.tags[slot], *vs)
	}
}

// fetchSentinel finds the line below L1 in the (s, m) form, with the
// accumulated latency and deepest level touched. The line is
// installed in L2 (and L3 on a memory fetch) per write-allocate, and
// a non-nil s aliases the line's fresh L2 slot — callers must consume
// it (convert or copy) before issuing any further hierarchy traffic,
// which could displace it. Every level is probed with a single
// combined hit-or-victim scan; the miss slots acquired up front stay
// valid because traffic to the levels below never touches the
// acquiring set, and the install order (L3 before L2, victims written
// back before placement) is exactly the lookup-then-insert order the
// two-pass implementation used.
func (h *Hierarchy) fetchSentinel(lineIdx uint64) (*cacheline.Sentinel, cacheline.SecMask, int, int) {
	lat := h.cfg.L2.Latency + h.cfg.ExtraL2L3
	l2slot, l2hd, l2way, hit, l2evict := h.l2.acquireHdr(lineIdx)
	if hit {
		h.l2.Stats.Hits++
		s, m := h.l2.lineAt(l2slot, l2hd, l2way)
		return s, m, lat, LvlL2
	}
	h.l2.Stats.Misses++
	lat += h.cfg.L3.Latency + h.cfg.ExtraL2L3
	l3slot, l3hd, l3way, hit3, l3evict := h.l3.acquireHdr(lineIdx)
	if hit3 {
		h.l3.Stats.Hits++
		h.l3pc.Hits++
		s, m := h.l3.lineAt(l3slot, l3hd, l3way)
		if s == nil {
			h.placeL2(l2slot, l2hd, l2way, l2evict, lineIdx, nil, m, false)
			return nil, m, lat, LvlL3
		}
		// Copy before placing: the L2 victim's writeback below may
		// displace this very L3 slot.
		line := *s
		h.placeL2(l2slot, l2hd, l2way, l2evict, lineIdx, &line, 0, false)
		return &h.l2.lines[l2slot], 0, lat, LvlL3
	}
	h.l3.Stats.Misses++
	h.l3pc.Misses++
	lat += h.cfg.MemLatency
	var line cacheline.Sentinel
	m, materialized := h.mem.ReadLineMask(lineIdx, &line)
	if !materialized {
		h.placeL3(l3slot, l3hd, l3way, l3evict, lineIdx, nil, m, false)
		h.placeL2(l2slot, l2hd, l2way, l2evict, lineIdx, nil, m, false)
		return nil, m, lat, LvlMem
	}
	h.placeL3(l3slot, l3hd, l3way, l3evict, lineIdx, &line, 0, false)
	h.placeL2(l2slot, l2hd, l2way, l2evict, lineIdx, &line, 0, false)
	return &h.l2.lines[l2slot], 0, lat, LvlMem
}

// spillToL2 converts a bitvector line to sentinel format (Algorithm 1)
// and writes it into L2. A line with zero data skips the conversion:
// its sentinel image is Spill(Bitvector{Mask: m}), so it travels as m.
func (h *Hierarchy) spillToL2(lineIdx uint64, bv *cacheline.Bitvector, dirty bool) {
	if bv.Data == (cacheline.Data{}) {
		h.writeBackL2(lineIdx, nil, bv.Mask, dirty)
		return
	}
	s, err := cacheline.Spill(*bv)
	if err != nil {
		// Unreachable by construction (see cacheline.FindSentinel);
		// fail loudly rather than silently dropping protection.
		panic("cache: " + err.Error())
	}
	h.writeBackL2(lineIdx, &s, 0, dirty)
}

// spillL1Victim evicts the L1 line in the given slot, converting to
// sentinel format and installing the result in L2.
func (h *Hierarchy) spillL1Victim(slot int) {
	set, way := h.l1.setWay(slot)
	hd := &h.l1.hdrs[set]
	bit := uint16(1) << uint(way)
	dirty := hd.dirty&bit != 0
	if dirty {
		h.l1.Stats.Writebacks++
	}
	if hd.zero&bit != 0 {
		h.writeBackL2(h.l1.tags[slot], nil, 0, dirty)
		return
	}
	line := &h.l1.lines[slot]
	if line.Mask != 0 {
		h.Stats.Spills++
	}
	h.spillToL2(h.l1.tags[slot], line, dirty)
}

// l1Fill completes an L1 miss for a slot acquired by the caller:
// fetch the sentinel line from below, convert it (Algorithm 2), spill
// the victim in place, and install. It returns the line's security
// mask alongside the latency and deepest level, so fused callers can
// run their violation check without re-deriving set/way. The fetched
// line is consumed (converted) before the victim spill issues any
// L2/L3 traffic; the spill-then-place order keeps replacement
// behavior and stats identical to the historical insert-then-spill.
// A zero-payload line fills as Bitvector{Mask: m}, which is exactly
// Fill(Spill(Bitvector{Mask: m})), without running the conversion.
func (h *Hierarchy) l1Fill(lineIdx uint64, slot int, hd *setHdr, way int, evicted bool) (cacheline.SecMask, int, int) {
	h.l1.Stats.Misses++
	s, m, lat, lvl := h.fetchSentinel(lineIdx)
	lat += h.cfg.L1.Latency
	var filled cacheline.Bitvector
	if s != nil {
		filled = cacheline.Fill(*s)
		m = filled.Mask
	}
	// A sentinel line is califormed exactly when it decodes to a
	// nonzero mask.
	if m != 0 {
		h.Stats.Fills++
		lat += h.cfg.SpillFillLatency
	}
	if evicted {
		h.spillL1Victim(slot)
	}
	switch {
	case s != nil:
		h.l1.placeHdr(slot, hd, way, lineIdx, &filled, false)
	case m != 0:
		h.l1.placeHdr(slot, hd, way, lineIdx, &cacheline.Bitvector{Mask: m}, false)
	default:
		h.l1.placeZeroHdr(slot, hd, way, lineIdx, false)
	}
	return m, lat, lvl
}

// l1Entry returns the L1 slot for lineIdx, filling on a miss
// (converting sentinel -> bitvector, Algorithm 2), with latency and
// deepest level.
func (h *Hierarchy) l1Entry(lineIdx uint64) (int, int, int) {
	slot, hd, way, hit, evicted := h.l1.acquireHdr(lineIdx)
	if hit {
		h.l1.Stats.Hits++
		return slot, h.cfg.L1.Latency, LvlL1
	}
	_, lat, lvl := h.l1Fill(lineIdx, slot, hd, way, evicted)
	return slot, lat, lvl
}

// violationAddr returns the address of the first security byte in
// [off, off+n) of the line, or -1.
func violationAddr(m cacheline.SecMask, off, n int) int {
	return (m & cacheline.RangeMask(off, n)).First()
}

// Load reads size bytes at addr through the hierarchy. The returned
// data substitutes zero for security bytes (speculative-side-channel
// hardening, §5.1); if any byte touched is a security byte the result
// carries an ExcLoad exception recorded at commit time.
func (h *Hierarchy) Load(addr uint64, size int) ([]byte, AccessResult) {
	out := make([]byte, size)
	pos := 0
	var res AccessResult
	for size > 0 {
		lineIdx := addr >> 6
		off := int(addr & 63)
		n := cacheline.Size - off
		if n > size {
			n = size
		}
		slot, lat, lvl := h.l1Entry(lineIdx)
		res.Cycles += lat
		if lvl > res.Level {
			res.Level = lvl
		}
		if !h.l1.zeroAt(slot) {
			// Zero lines read as the zeros out already holds.
			line := &h.l1.lines[slot]
			if bad := line.LoadRangeInto(out[pos:], off, n); bad && res.Exc == nil {
				h.Stats.Violations++
				res.Exc = &isa.Exception{
					Kind: isa.ExcLoad,
					Addr: lineIdx<<6 + uint64(violationAddr(line.Mask, off, n)),
				}
			}
		}
		pos += n
		addr += uint64(n)
		size -= n
	}
	return out, res
}

// storePrecheck walks the lines of [addr, addr+size) and returns the
// first security-byte violation, accumulating latency. Stores are
// precise: a violating store must not commit any byte, including on
// earlier lines of a line-crossing access, so the check runs before
// any write.
func (h *Hierarchy) storePrecheck(addr uint64, size int) (AccessResult, bool) {
	var res AccessResult
	a, sz := addr, size
	for sz > 0 {
		lineIdx := a >> 6
		off := int(a & 63)
		n := cacheline.Size - off
		if n > sz {
			n = sz
		}
		slot, lat, lvl := h.l1Entry(lineIdx)
		res.Cycles += lat
		if lvl > res.Level {
			res.Level = lvl
		}
		if bad := violationAddr(h.l1MaskAt(slot), off, n); bad >= 0 && res.Exc == nil {
			h.Stats.Violations++
			res.Exc = &isa.Exception{Kind: isa.ExcStore, Addr: lineIdx<<6 + uint64(bad)}
		}
		a += uint64(n)
		sz -= n
	}
	return res, res.Exc != nil
}

// l1MaskAt returns the security mask of an L1 slot without touching
// the payload array for zero lines.
func (h *Hierarchy) l1MaskAt(slot int) cacheline.SecMask {
	if h.l1.zeroAt(slot) {
		return 0
	}
	return h.l1.lines[slot].Mask
}

// Store writes data at addr. A store touching any security byte does
// not commit (precise exception) and reports ExcStore.
func (h *Hierarchy) Store(addr uint64, data []byte) AccessResult {
	if int(addr&63)+len(data) > cacheline.Size {
		// Line-crossing store: validate every line first. Single-line
		// stores are checked atomically by StoreRange below.
		if res, bad := h.storePrecheck(addr, len(data)); bad {
			return res
		}
	}
	return h.storeCommit(addr, data)
}

func (h *Hierarchy) storeCommit(addr uint64, data []byte) AccessResult {
	var res AccessResult
	for len(data) > 0 {
		lineIdx := addr >> 6
		off := int(addr & 63)
		n := cacheline.Size - off
		if n > len(data) {
			n = len(data)
		}
		slot, lat, lvl := h.l1Entry(lineIdx)
		res.Cycles += lat
		if lvl > res.Level {
			res.Level = lvl
		}
		// A functional store writes real bytes: materialize zero lines
		// so the payload can be modified in place.
		h.l1.materialize(slot)
		line := &h.l1.lines[slot]
		if bad := line.StoreRange(off, data[:n]); bad {
			if res.Exc == nil {
				h.Stats.Violations++
				res.Exc = &isa.Exception{
					Kind: isa.ExcStore,
					Addr: lineIdx<<6 + uint64(violationAddr(line.Mask, off, n)),
				}
			}
		} else {
			h.l1.markDirty(slot)
		}
		addr += uint64(n)
		data = data[n:]
	}
	return res
}

// LoadTouch performs a load for timing purposes without materializing
// the data. Violation semantics are identical to Load. Single-line
// accesses that hit L1 — the overwhelming majority of simulated ops —
// take a fused fast path: one combined scan-and-touch resolves the
// slot, and the violation check reads the metadata through the set
// header already in hand instead of recomputing set/way per step.
func (h *Hierarchy) LoadTouch(addr uint64, size int) AccessResult {
	if off := int(addr & 63); off+size <= cacheline.Size {
		lineIdx := addr >> 6
		slot, hd, way, hit, evicted := h.l1.acquireHdr(lineIdx)
		var mask cacheline.SecMask
		lat, lvl := h.cfg.L1.Latency, LvlL1
		if hit {
			h.l1.Stats.Hits++
			if hd.zero&(1<<uint(way)) == 0 {
				mask = h.l1.lines[slot].Mask
			}
		} else {
			mask, lat, lvl = h.l1Fill(lineIdx, slot, hd, way, evicted)
		}
		if mask != 0 {
			if bad := violationAddr(mask, off, size); bad >= 0 {
				h.Stats.Violations++
				return AccessResult{Cycles: lat, Level: lvl,
					Exc: &isa.Exception{Kind: isa.ExcLoad, Addr: addr&^63 + uint64(bad)}}
			}
		}
		return AccessResult{Cycles: lat, Level: lvl}
	}
	var res AccessResult
	for size > 0 {
		lineIdx := addr >> 6
		off := int(addr & 63)
		n := cacheline.Size - off
		if n > size {
			n = size
		}
		slot, lat, lvl := h.l1Entry(lineIdx)
		res.Cycles += lat
		if lvl > res.Level {
			res.Level = lvl
		}
		if bad := violationAddr(h.l1MaskAt(slot), off, n); bad >= 0 && res.Exc == nil {
			h.Stats.Violations++
			res.Exc = &isa.Exception{Kind: isa.ExcLoad, Addr: lineIdx<<6 + uint64(bad)}
		}
		addr += uint64(n)
		size -= n
	}
	return res
}

// StoreTouch performs a store for timing purposes without writing
// data: the line is allocated and dirtied, and violations are checked
// exactly as Store does. Like LoadTouch it fuses the single-line
// L1-hit case into one scan-touch-check-dirty pass over the set
// header.
func (h *Hierarchy) StoreTouch(addr uint64, size int) AccessResult {
	if off := int(addr & 63); off+size <= cacheline.Size {
		lineIdx := addr >> 6
		slot, hd, way, hit, evicted := h.l1.acquireHdr(lineIdx)
		bit := uint16(1) << uint(way)
		var mask cacheline.SecMask
		lat, lvl := h.cfg.L1.Latency, LvlL1
		if hit {
			h.l1.Stats.Hits++
			if hd.zero&bit == 0 {
				mask = h.l1.lines[slot].Mask
			}
		} else {
			mask, lat, lvl = h.l1Fill(lineIdx, slot, hd, way, evicted)
		}
		if mask != 0 {
			if bad := violationAddr(mask, off, size); bad >= 0 {
				h.Stats.Violations++
				return AccessResult{Cycles: lat, Level: lvl,
					Exc: &isa.Exception{Kind: isa.ExcStore, Addr: addr&^63 + uint64(bad)}}
			}
		}
		hd.dirty |= bit
		return AccessResult{Cycles: lat, Level: lvl}
	}
	if res, bad := h.storePrecheck(addr, size); bad {
		return res
	}
	var res AccessResult
	for size > 0 {
		lineIdx := addr >> 6
		off := int(addr & 63)
		n := cacheline.Size - off
		if n > size {
			n = size
		}
		slot, lat, lvl := h.l1Entry(lineIdx)
		res.Cycles += lat
		if lvl > res.Level {
			res.Level = lvl
		}
		if bad := violationAddr(h.l1MaskAt(slot), off, n); bad >= 0 {
			if res.Exc == nil {
				h.Stats.Violations++
				res.Exc = &isa.Exception{Kind: isa.ExcStore, Addr: lineIdx<<6 + uint64(bad)}
			}
		} else {
			h.l1.markDirty(slot)
		}
		addr += uint64(n)
		size -= n
	}
	return res
}

// CForm executes a CFORM instruction (§4.1). The temporal variant
// behaves as a store: the line is allocated into L1 and modified
// there. The non-temporal variant modifies the line below L1 without
// polluting the L1 data cache (§6.1). A K-map conflict (Table 1)
// raises ExcCaliformConflict and does not commit.
func (h *Hierarchy) CForm(cf isa.CFORM) AccessResult {
	h.Stats.CForms++
	if err := cf.Validate(); err != nil {
		h.Stats.Violations++
		return AccessResult{Exc: err.(*isa.Exception)}
	}
	lineIdx := cf.Base >> 6

	if cf.NonTemporal {
		// Invalidate any L1 copy first (like a streaming store, the
		// NT CFORM must not leave a stale bitvector line above).
		if slot, ok := h.l1.probe(lineIdx); ok {
			h.spillL1Victim(slot)
			h.l1.clearValid(slot)
		}
		s, m, lat, lvl := h.fetchSentinel(lineIdx)
		bv := cacheline.Bitvector{Mask: m}
		if s != nil {
			bv = cacheline.Fill(*s)
		}
		if fault := bv.Caliform(cacheline.SecMask(cf.Attrs), cacheline.SecMask(cf.Mask)); fault >= 0 {
			h.Stats.Violations++
			return AccessResult{Cycles: lat, Level: lvl, Exc: &isa.Exception{
				Kind: isa.ExcCaliformConflict,
				Addr: cf.Base + uint64(fault),
			}}
		}
		h.spillToL2(lineIdx, &bv, true)
		return AccessResult{Cycles: lat, Level: lvl}
	}

	slot, lat, lvl := h.l1Entry(lineIdx)
	// CFORM rewrites the line's metadata (and zeroes selected bytes):
	// materialize zero lines before modifying in place.
	h.l1.materialize(slot)
	line := &h.l1.lines[slot]
	if fault := line.Caliform(cacheline.SecMask(cf.Attrs), cacheline.SecMask(cf.Mask)); fault >= 0 {
		h.Stats.Violations++
		return AccessResult{Cycles: lat, Level: lvl, Exc: &isa.Exception{
			Kind: isa.ExcCaliformConflict,
			Addr: cf.Base + uint64(fault),
		}}
	}
	h.l1.markDirty(slot)
	return AccessResult{Cycles: lat, Level: lvl}
}

// SecurityBitmap returns, for the size bytes starting at addr, a
// bitmap of which are security bytes (bit i = byte addr+i), along
// with the access timing. It performs the access (fetching lines) but
// raises no exception: vector-unit policies (Appendix B) decide
// themselves which lanes fault.
func (h *Hierarchy) SecurityBitmap(addr uint64, size int) (uint64, AccessResult) {
	if size > 64 {
		size = 64
	}
	var bitmap uint64
	var res AccessResult
	pos := 0
	for pos < size {
		lineIdx := (addr + uint64(pos)) >> 6
		off := int((addr + uint64(pos)) & 63)
		n := cacheline.Size - off
		if n > size-pos {
			n = size - pos
		}
		slot, lat, lvl := h.l1Entry(lineIdx)
		res.Cycles += lat
		if lvl > res.Level {
			res.Level = lvl
		}
		mask := h.l1MaskAt(slot)
		for i := 0; i < n; i++ {
			if mask.IsSet(off + i) {
				bitmap |= 1 << uint(pos+i)
			}
		}
		pos += n
	}
	return bitmap, res
}

// SecMaskAt returns the security mask of the line containing addr,
// fetching it if needed. It is a debug/verification path and counts
// as a normal access.
func (h *Hierarchy) SecMaskAt(addr uint64) cacheline.SecMask {
	slot, _, _ := h.l1Entry(addr >> 6)
	return h.l1MaskAt(slot)
}

// ResetStats zeroes all per-level and hierarchy counters without
// touching cache contents. Used at steady-state measurement
// boundaries. For a shared L3 it resets the aggregate counters and
// this core's own slot; the multicore engine resets every core at its
// barrier (SharedL3.ResetStats), so the per-core/aggregate sum
// property is preserved there too.
func (h *Hierarchy) ResetStats() {
	h.l1.Stats = LevelStats{}
	h.l2.Stats = LevelStats{}
	h.l3.Stats = LevelStats{}
	*h.l3pc = LevelStats{}
	h.Stats = HierStats{}
}

// Flush drains every dirty line to memory, converting formats on the
// way down. Used at simulation barriers and by tests that verify
// end-to-end data integrity. Slots are visited in the same set-major
// order the entry-array layout used, keeping writeback order (and so
// stats and memory state) stable.
func (h *Hierarchy) Flush() {
	for slot := range h.l1.lines {
		if h.l1.validAt(slot) {
			h.spillL1Victim(slot)
			h.l1.clearValid(slot)
		}
	}
	for slot := range h.l2.lines {
		set, way := h.l2.setWay(slot)
		hd := &h.l2.hdrs[set]
		if bit := uint16(1) << uint(way); hd.valid&bit != 0 {
			if hd.dirty&bit != 0 {
				s, m := h.l2.lineAt(slot, hd, way)
				h.writeBackL3(h.l2.tags[slot], s, m, true)
			}
			hd.valid &^= bit
		}
	}
	for slot := range h.l3.lines {
		set, way := h.l3.setWay(slot)
		hd := &h.l3.hdrs[set]
		if bit := uint16(1) << uint(way); hd.valid&bit != 0 {
			if hd.dirty&bit != 0 {
				h.writeBackMem(slot, hd, way)
			}
			hd.valid &^= bit
		}
	}
}
