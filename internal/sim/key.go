package sim

// Cache-key derivation for the content-addressed result store
// (internal/store). Two keys cover the engine's two cacheable
// artifacts:
//
//   - RunKey identifies one finished Result: every determinant of a
//     run's numbers — benchmark, instrumented configuration, heap
//     configuration, visit count and the full machine description —
//     normalized so that configurations which provably produce
//     identical results share a key.
//
//   - StreamKey identifies one captured op stream (trace.Recording):
//     RunKey minus the machine. The op sequence a kernel and
//     allocator emit is a pure function of the benchmark, the
//     instrumented layouts and the heap configuration; machines only
//     consume it. One stored recording therefore serves every
//     machine, which is what makes an incremental cross-machine sweep
//     replay-only. StreamOf is its comparable form, the stream
//     identity the sweep engine groups cells by.
//
// Keys are canonical JSON of the determinant set. JSON of a fixed
// struct is deterministic (field order is declaration order, floats
// use shortest-round-trip formatting), human-readable when debugging
// a store tree, and cheap to hash — the store addresses entries by
// SHA-256 of the key, the key text itself is stored only inside the
// entry. The simulator's code version deliberately stays out of the
// key: internal/store namespaces the whole tree by it.

import (
	"encoding/json"

	"repro/internal/alloc"
	"repro/internal/machine"
	"repro/internal/workload"
)

// keyDoc is the serialized determinant set. Fields mirror RunConfig
// with the normalizations documented on RunKey.
type keyDoc struct {
	Bench     string        `json:"bench"`
	BenchSeed int64         `json:"bench_seed"`
	Policy    PolicyChoice  `json:"policy"`
	MinPad    int           `json:"min_pad,omitempty"`
	MaxPad    int           `json:"max_pad,omitempty"`
	FixedPad  int           `json:"fixed_pad,omitempty"`
	UseCForm  bool          `json:"use_cform,omitempty"`
	Seed      int64         `json:"layout_seed,omitempty"`
	Visits    int           `json:"visits"`
	Heap      *alloc.Config `json:"heap,omitempty"`
	Machine   *machine.Desc `json:"machine,omitempty"`
}

// normalizedKeyDoc builds the machine-free determinant set of (spec,
// rc). Normalizations guarantee equal keys for provably equal
// results: the baseline policy ignores pads, layout seed and CFORM
// issue (its layouts are uninstrumented and buildHeap forces CFORMs
// off), so those fields are zeroed; the visit count resolves the
// Run default.
func normalizedKeyDoc(spec workload.Spec, rc RunConfig) keyDoc {
	d := keyDoc{
		Bench:     spec.Name,
		BenchSeed: spec.Seed,
		Policy:    rc.Policy,
		Visits:    visitsOrDefault(rc.Visits),
		Heap:      rc.Heap,
	}
	if rc.Policy != PolicyNone {
		d.MinPad, d.MaxPad, d.FixedPad = rc.MinPad, rc.MaxPad, rc.FixedPad
		d.Seed = rc.LayoutSeed
		d.UseCForm = rc.UseCForm
	}
	return d
}

func (d keyDoc) String() string {
	data, err := json.Marshal(d)
	if err != nil {
		// Every field is plain data; Marshal cannot fail. Panic rather
		// than silently aliasing distinct configurations onto one key.
		panic("sim: key marshal: " + err.Error())
	}
	return string(data)
}

// RunKey returns the store key of the Result Run(spec, rc) produces.
// RunScripted and RunFanout produce byte-identical results for the
// same (spec, rc) by contract, so their cells share the key.
func RunKey(spec workload.Spec, rc RunConfig) string {
	d := normalizedKeyDoc(spec, rc)
	m := rc.Machine.OrDefault()
	d.Machine = &m
	return d.String()
}

// StreamKey returns the store key of the op-stream recording a
// capture run of (spec, rc) produces — RunKey with the machine
// removed, shared by every machine column that consumes the stream.
func StreamKey(spec workload.Spec, rc RunConfig) string {
	return StreamOf(spec, rc).Key()
}

// StreamID identifies one op stream as a comparable value: the
// machine-free determinant set StreamKey renders, with the heap
// override held by value, so equal configurations share an ID. The
// sweep engine groups cells by it at the cost of one map lookup.
type StreamID struct {
	doc     keyDoc // Heap and Machine stay nil
	heap    alloc.Config
	hasHeap bool
}

// StreamOf returns the identity of the op stream a capture run of
// (spec, rc) produces.
func StreamOf(spec workload.Spec, rc RunConfig) StreamID {
	id := StreamID{doc: normalizedKeyDoc(spec, rc)}
	if h := id.doc.Heap; h != nil {
		id.heap, id.hasHeap, id.doc.Heap = *h, true, nil
	}
	return id
}

// Key returns the stream's store key (StreamKey).
func (id StreamID) Key() string {
	d := id.doc
	if id.hasHeap {
		d.Heap = &id.heap
	}
	return d.String()
}
