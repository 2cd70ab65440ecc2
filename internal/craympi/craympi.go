// Package craympi simulates HPE Cray MPI, an MPICH-family derivative
// (paper Section 3 and Section 7: Cray MPI shares much of its code with
// MPICH). It therefore uses the same special 32-bit id scheme as package
// mpich, with two vendor-specific twists that mirror how derivatives
// diverge from their upstream:
//
//   - bit 26 is a vendor tag present in every non-builtin handle, so raw
//     Cray handles are numerically distinct from MPICH handles for the
//     same object index (code that hardwires MPICH handle constants,
//     as the pre-paper MANA did, breaks here);
//   - each table slot carries a 4-bit generation counter folded into the
//     slab number field; a freed-and-reused slot invalidates stale
//     handles instead of silently resolving them to the new object.
//
// Like package mpich's, the table's slabs are allocated on demand and
// grown as slots are used (minSlabEntries, doubling to the full 2048),
// without changing the handle layout.
//
// The upper layers are the shared mpibase engine, exactly as the real
// Cray MPI layers vendor glue over MPICH's core.
package craympi

import (
	"manasim/internal/mpi"
	"manasim/internal/mpibase"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// Handle bit layout: [31:28]=kind, [27]=builtin, [26]=vendor tag,
// [25:22]=generation, [21:11]=slab, [10:0]=slot.
const (
	kindShift   = 28
	builtinBit  = 1 << 27
	vendorBit   = 1 << 26
	genShift    = 22
	genMask     = 0xF
	slabShift   = 11
	slabMask    = 0x7FF
	slotMask    = 0x7FF
	slabEntries = slotMask + 1
	// minSlabEntries is a new slab's length; it doubles up to
	// slabEntries as slots are used.
	minSlabEntries = 16
)

// Encode packs the Cray MPI handle fields. Exported for property tests.
func Encode(kind mpi.Kind, builtin bool, gen, slab, slot int) mpi.Handle {
	h := uint32(kind)<<kindShift |
		uint32(gen&genMask)<<genShift |
		uint32(slab&slabMask)<<slabShift |
		uint32(slot&slotMask)
	h |= vendorBit // every Cray handle carries the vendor tag
	if builtin {
		h |= builtinBit
	}
	return mpi.Handle(h)
}

// Decode splits a Cray MPI handle into its fields.
func Decode(h mpi.Handle) (kind mpi.Kind, builtin bool, gen, slab, slot int) {
	v := uint32(h)
	return mpi.Kind(v >> kindShift), v&builtinBit != 0,
		int(v>>genShift) & genMask,
		int(v>>slabShift) & slabMask,
		int(v) & slotMask
}

// slab is one second-level table. Its arrays cover the slots in use so
// far; a slot past their length has never held an object and is at
// generation 0.
type slab struct {
	objs  []any
	kinds []mpi.Kind
	gens  []uint8
}

// grow extends s to cover slot, doubling from minSlabEntries and never
// past slabEntries.
func (s *slab) grow(slot int) {
	if slot < len(s.objs) {
		return
	}
	n := max(minSlabEntries, len(s.objs))
	for n <= slot {
		n *= 2
	}
	n = min(n, slabEntries)
	objs := make([]any, n)
	copy(objs, s.objs)
	kinds := make([]mpi.Kind, n)
	copy(kinds, s.kinds)
	gens := make([]uint8, n)
	copy(gens, s.gens)
	s.objs, s.kinds, s.gens = objs, kinds, gens
}

// at returns the slab's object at slot, nil for a slot never grown to.
func (s *slab) at(slot int) any {
	if s == nil || slot >= len(s.objs) {
		return nil
	}
	return s.objs[slot]
}

type table struct {
	slabs     map[int]*slab
	nextOwn   int
	free      []int
	bound     [mpi.NumConstNames]bool
	constObjs [mpi.NumConstNames]any
}

func newTable() *table { return &table{slabs: make(map[int]*slab)} }

// Insert implements mpibase.HandleTable.
func (t *table) Insert(kind mpi.Kind, obj any) mpi.Handle {
	var pos int
	if n := len(t.free); n > 0 {
		pos = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		pos = t.nextOwn
		t.nextOwn++
	}
	sl, slot := pos/slabEntries, pos%slabEntries
	s := t.slabs[sl]
	if s == nil {
		s = &slab{}
		t.slabs[sl] = s
	}
	s.grow(slot)
	s.objs[slot] = obj
	s.kinds[slot] = kind
	return Encode(kind, false, int(s.gens[slot]), sl, slot)
}

// Lookup implements mpibase.HandleTable, validating the generation tag
// so stale handles to reused slots fail loudly.
func (t *table) Lookup(kind mpi.Kind, h mpi.Handle) (any, error) {
	if h == mpi.HandleNull {
		return nil, mpi.Errorf(kind.ErrClass(), "null %v handle", kind)
	}
	k, builtin, gen, sl, slot := Decode(h)
	if k != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x is %v, want %v", uint64(h), k, kind)
	}
	if builtin {
		if slot < int(mpi.NumConstNames) && t.constObjs[slot] != nil {
			return t.constObjs[slot], nil
		}
		return nil, mpi.Errorf(kind.ErrClass(), "builtin handle %#x not initialized", uint64(h))
	}
	s := t.slabs[sl]
	if s.at(slot) == nil {
		return nil, mpi.Errorf(kind.ErrClass(), "dangling %v handle %#x", kind, uint64(h))
	}
	if int(s.gens[slot]) != gen {
		return nil, mpi.Errorf(kind.ErrClass(), "stale %v handle %#x: generation %d, slot at %d", kind, uint64(h), gen, s.gens[slot])
	}
	if s.kinds[slot] != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x kind mismatch", uint64(h))
	}
	return s.objs[slot], nil
}

// Remove implements mpibase.HandleTable, bumping the slot generation.
func (t *table) Remove(h mpi.Handle) error {
	k, builtin, gen, sl, slot := Decode(h)
	if builtin {
		return mpi.Errorf(k.ErrClass(), "cannot free builtin handle %#x", uint64(h))
	}
	s := t.slabs[sl]
	if s.at(slot) == nil {
		return mpi.Errorf(k.ErrClass(), "free of dangling handle %#x", uint64(h))
	}
	if int(s.gens[slot]) != gen {
		return mpi.Errorf(k.ErrClass(), "free with stale handle %#x", uint64(h))
	}
	s.objs[slot] = nil
	s.kinds[slot] = mpi.KindNone
	s.gens[slot] = (s.gens[slot] + 1) & genMask
	t.free = append(t.free, sl*slabEntries+slot)
	return nil
}

// ConstHandle implements mpibase.HandleTable: like MPICH, builtin
// constants are compile-time integers, stable across sessions.
func (t *table) ConstHandle(name mpi.ConstName, obj any) (mpi.Handle, error) {
	h := Encode(name.Kind(), true, 0, 0, int(name))
	if !t.bound[name] {
		t.bound[name] = true
		t.constObjs[name] = obj
	}
	return h, nil
}

// New creates a Cray MPI library instance for one rank.
func New(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	eng := mpibase.NewEngine(fab, rank, clock, net)
	return mpibase.NewProc(eng, newTable(), "craympi", 32, mpi.AllFeatures())
}
