package trace

// Binary serialization of Recording — the persistence format behind
// internal/store's recording entries. The encoding mirrors the
// in-memory struct-of-arrays layout column for column (tags, args,
// sizes, CFORM attrs/masks, the reset boundary, the heap footprint),
// so encode and decode are single passes with no per-op branching,
// and two byte-equal streams always serialize to byte-equal payloads
// (the store's content addressing relies on that).

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// codecMagic guards the payload format; bump it when the column
// layout changes so stale store entries read as corrupt (a miss),
// never as wrong data.
const codecMagic = "califorms-rec/1\n"

// MarshalBinary serializes the recording.
func (r *Recording) MarshalBinary() ([]byte, error) {
	n := len(r.tags)
	size := len(codecMagic) + 8*4 + 8 + 8 + n + 8*n + n + 16*len(r.attrs)
	out := make([]byte, 0, size)
	out = append(out, codecMagic...)
	var hdr [8]byte
	appendU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(hdr[:], v)
		out = append(out, hdr[:]...)
	}
	appendU64(uint64(n))
	appendU64(uint64(len(r.attrs)))
	appendU64(uint64(int64(r.resetAt))) // -1 survives the round trip
	appendU64(r.heapBytes)
	out = append(out, r.tags...)
	for _, a := range r.args {
		appendU64(a)
	}
	out = append(out, r.sizes...)
	for _, a := range r.attrs {
		appendU64(a)
	}
	for _, m := range r.masks {
		appendU64(m)
	}
	return out, nil
}

// UnmarshalBinary replaces r's contents with the serialized stream.
// Any structural inconsistency — bad magic, truncation, trailing
// bytes, a CFORM count that disagrees with the tag column — is an
// error; callers treat it as a cache miss.
func (r *Recording) UnmarshalBinary(data []byte) error {
	if len(data) < len(codecMagic)+8*4 {
		return fmt.Errorf("trace: recording payload truncated (%d bytes)", len(data))
	}
	if string(data[:len(codecMagic)]) != codecMagic {
		return fmt.Errorf("trace: bad recording magic")
	}
	p := data[len(codecMagic):]
	readU64 := func() uint64 {
		v := binary.LittleEndian.Uint64(p[:8])
		p = p[8:]
		return v
	}
	n := int(readU64())
	nc := int(readU64())
	resetAt := int(int64(readU64()))
	heapBytes := readU64()
	if n < 0 || nc < 0 || resetAt < -1 || resetAt > n {
		return fmt.Errorf("trace: recording header out of range (ops=%d cforms=%d reset=%d)", n, nc, resetAt)
	}
	if len(p) != n+8*n+n+16*nc {
		return fmt.Errorf("trace: recording payload length %d, want %d", len(p), n+8*n+n+16*nc)
	}
	r.Reset()
	// Size the word columns up front: grown op by op, a decode
	// allocates several times its final size in garbage.
	r.args = slices.Grow(r.args, n)
	r.attrs = slices.Grow(r.attrs, nc)
	r.masks = slices.Grow(r.masks, nc)
	r.tags = append(r.tags, p[:n]...)
	p = p[n:]
	cforms := 0
	for _, t := range r.tags {
		if Kind(t&tagKindMask) == CForm {
			cforms++
		}
	}
	if cforms != nc {
		return fmt.Errorf("trace: recording has %d CFORM tags but %d payload words", cforms, nc)
	}
	for i := 0; i < n; i++ {
		r.args = append(r.args, readU64())
	}
	r.sizes = append(r.sizes, p[:n]...)
	p = p[n:]
	for i := 0; i < nc; i++ {
		r.attrs = append(r.attrs, readU64())
	}
	for i := 0; i < nc; i++ {
		r.masks = append(r.masks, readU64())
	}
	r.resetAt = resetAt
	r.heapBytes = heapBytes
	return nil
}
