// Package mem models main memory and the operating-system metadata
// paths of the Califorms design (§3, §6.3): DRAM keeps califormed
// lines as-is and stores the one metadata bit per cache line in spare
// ECC bits (as Oracle ADI does); when a page is swapped out, the page
// fault handler spills the per-line bits into a reserved OS-managed
// address space (8B for a 4KB page) and reclaims them on swap-in.
package mem

import (
	"fmt"

	"repro/internal/cacheline"
)

// PageSize is the virtual memory page size.
const PageSize = 4096

// LinesPerPage is the number of cache lines per page; the swap
// metadata for a page is exactly one bit per line, i.e. 8 bytes.
const LinesPerPage = PageSize / cacheline.Size

// Stats counts memory-level events.
type Stats struct {
	LineReads  uint64
	LineWrites uint64
	SwapOuts   uint64
	SwapIns    uint64
}

// Memory is the DRAM model. Lines are addressed by line index
// (byte address >> 6) and read back in sentinel format; the
// Califormed flag stands in for the ECC spare bit.
//
// A line is held in one of two forms. A zero-payload line is kept as
// its security mask m in a page of masks: its sentinel image is
// Spill(Bitvector{Mask: m}), a pure function of m, and is derived on
// read. m == 0 is the canonical zero line, which is also what
// untouched memory reads as. A line written through WriteLine with
// any other content — a functional Store's data, or a swap-in — is
// materialized as a Sentinel in the line map. A line is never in
// both.
type Memory struct {
	lines map[uint64]cacheline.Sentinel
	// dirs holds the directories of mask pages, one per span of
	// address space that holds a califormed zero-payload line. A
	// simulated program's califormed lines sit in one heap per core,
	// so the list stays a few entries long and a scan finds a page
	// with no hashing.
	dirs []*pageDir
	// reserved models the OS-reserved address space holding swap
	// metadata: 8 bytes (64 bits) per swapped-out page.
	reserved map[uint64]uint64
	// swapSpace holds the data content of swapped-out pages, standing
	// in for the swap device. Califormed-format bytes are stored
	// verbatim: the design keeps lines califormed end to end.
	swapSpace map[uint64][PageSize]byte
	Stats     Stats
}

// page holds the masks of one page's zero-payload lines, indexed by
// line within the page; a zero mask is a non-resident (zero) line.
type page [LinesPerPage]cacheline.SecMask

// dirShift sets a directory's span: 1<<dirShift consecutive pages,
// 256 MB of address space, which holds a simulated heap whole.
const dirShift = 16

// pageDir indexes the pages of one span; key is the span's page index
// >> dirShift.
type pageDir struct {
	key   uint64
	pages [1 << dirShift]*page
}

// New creates an empty memory.
func New() *Memory {
	return &Memory{
		lines:     make(map[uint64]cacheline.Sentinel),
		reserved:  make(map[uint64]uint64),
		swapSpace: make(map[uint64][PageSize]byte),
	}
}

// pageOf returns the page holding lineIdx's mask, creating it (and
// its directory) when create is set; without create a missing page is
// nil.
func (m *Memory) pageOf(lineIdx uint64, create bool) *page {
	idx := lineIdx / LinesPerPage
	var d *pageDir
	for _, dd := range m.dirs {
		if dd.key == idx>>dirShift {
			d = dd
			break
		}
	}
	if d == nil {
		if !create {
			return nil
		}
		d = &pageDir{key: idx >> dirShift}
		m.dirs = append(m.dirs, d)
	}
	p := &d.pages[idx&(1<<dirShift-1)]
	if *p == nil && create {
		*p = new(page)
	}
	return *p
}

// maskOf returns the mask of a line not in the line map.
func (m *Memory) maskOf(lineIdx uint64) cacheline.SecMask {
	if p := m.pageOf(lineIdx, false); p != nil {
		return p[lineIdx%LinesPerPage]
	}
	return 0
}

// line returns the sentinel image of a line and whether it is
// resident, without counting a read.
func (m *Memory) line(lineIdx uint64) (cacheline.Sentinel, bool) {
	if s, ok := m.lines[lineIdx]; ok {
		return s, true
	}
	mask := m.maskOf(lineIdx)
	if mask == 0 {
		return cacheline.Sentinel{}, false
	}
	s, err := cacheline.Spill(cacheline.Bitvector{Mask: mask})
	if err != nil {
		// Unreachable: zero data leaves every sentinel pattern but 0
		// free (see cacheline.FindSentinel).
		panic("mem: " + err.Error())
	}
	return s, true
}

// ReadLine fetches the sentinel-format line at the given line index.
// Untouched memory reads as zeroed, non-califormed lines.
func (m *Memory) ReadLine(lineIdx uint64) cacheline.Sentinel {
	s, _ := m.ReadLineSparse(lineIdx)
	return s
}

// ReadLineSparse is ReadLine plus a residency flag: resident reports
// whether the line holds anything but the canonical zero line, either
// materialized or as a nonzero mask.
func (m *Memory) ReadLineSparse(lineIdx uint64) (s cacheline.Sentinel, resident bool) {
	m.Stats.LineReads++
	return m.line(lineIdx)
}

// ReadLineMask is the hierarchy's read. A zero-payload line returns
// its mask with materialized false (0 for the canonical zero line),
// so the caller can carry the line on as 8 bytes; a materialized line
// is copied to *s and returns materialized true.
func (m *Memory) ReadLineMask(lineIdx uint64, s *cacheline.Sentinel) (mask cacheline.SecMask, materialized bool) {
	m.Stats.LineReads++
	if len(m.lines) != 0 {
		if *s, materialized = m.lines[lineIdx]; materialized {
			return 0, true
		}
	}
	return m.maskOf(lineIdx), false
}

// WriteLine stores a sentinel-format line, ECC metadata bit included.
func (m *Memory) WriteLine(lineIdx uint64, s cacheline.Sentinel) {
	if !s.Califormed && s.Data == (cacheline.Data{}) {
		// The zero line is mask 0: keep the line map sparse.
		m.WriteMask(lineIdx, 0)
		return
	}
	m.Stats.LineWrites++
	if p := m.pageOf(lineIdx, false); p != nil {
		p[lineIdx%LinesPerPage] = 0
	}
	m.lines[lineIdx] = s
}

// WriteMask stores the zero-payload line Spill(Bitvector{Mask: mask})
// in mask form, dropping any materialized copy; mask 0 writes the
// canonical zero line. It is the hierarchy's writeback for lines it
// already carries as masks.
func (m *Memory) WriteMask(lineIdx uint64, mask cacheline.SecMask) {
	m.Stats.LineWrites++
	if len(m.lines) != 0 {
		delete(m.lines, lineIdx)
	}
	if p := m.pageOf(lineIdx, mask != 0); p != nil {
		p[lineIdx%LinesPerPage] = mask
	}
}

// Footprint returns the number of distinct lines currently resident.
func (m *Memory) Footprint() int {
	n := len(m.lines)
	for _, d := range m.dirs {
		for _, p := range d.pages {
			if p == nil {
				continue
			}
			for _, mask := range p {
				if mask != 0 {
					n++
				}
			}
		}
	}
	return n
}

// SwapOut evicts the page containing pageIdx*PageSize to the swap
// device. The ECC metadata bits do not exist on disk, so the handler
// packs the 64 per-line califormed bits into one 8-byte word in the
// reserved region (§6.3).
func (m *Memory) SwapOut(pageIdx uint64) error {
	if _, ok := m.swapSpace[pageIdx]; ok {
		return fmt.Errorf("mem: page %d already swapped out", pageIdx)
	}
	var data [PageSize]byte
	var meta uint64
	base := pageIdx * LinesPerPage
	for i := uint64(0); i < LinesPerPage; i++ {
		s, _ := m.line(base + i)
		copy(data[i*cacheline.Size:], s.Data[:])
		if s.Califormed {
			meta |= 1 << i
		}
		delete(m.lines, base+i)
	}
	if p := m.pageOf(base, false); p != nil {
		*p = page{}
	}
	m.swapSpace[pageIdx] = data
	m.reserved[pageIdx] = meta
	m.Stats.SwapOuts++
	return nil
}

// SwapIn restores a page, reuniting the stored data with the metadata
// bits saved in the reserved region.
func (m *Memory) SwapIn(pageIdx uint64) error {
	data, ok := m.swapSpace[pageIdx]
	if !ok {
		return fmt.Errorf("mem: page %d is not swapped out", pageIdx)
	}
	meta := m.reserved[pageIdx]
	base := pageIdx * LinesPerPage
	for i := uint64(0); i < LinesPerPage; i++ {
		var s cacheline.Sentinel
		copy(s.Data[:], data[i*cacheline.Size:(i+1)*cacheline.Size])
		s.Califormed = meta&(1<<i) != 0
		m.WriteLine(base+i, s)
	}
	delete(m.swapSpace, pageIdx)
	delete(m.reserved, pageIdx)
	m.Stats.SwapIns++
	return nil
}

// SwappedMetadataBytes returns the size of the OS-reserved metadata
// region currently in use: 8 bytes per swapped-out page.
func (m *Memory) SwappedMetadataBytes() int { return len(m.reserved) * 8 }
