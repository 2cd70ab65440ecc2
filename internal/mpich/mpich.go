// Package mpich simulates the MPICH family's object-handle design
// (paper Section 3): an MPI object id is a special 32-bit integer backed
// by a two-level table, similar to a two-level page table:
//
//	bits 31..28  object kind (communicator, group, request, op, datatype)
//	bit  27      builtin flag (predefined constants)
//	bits 26..12  first-level index (slab number)
//	bits 11..0   second-level index (slot within a 4096-entry slab)
//
// Slabs are allocated on demand, when the first object lands in one, and
// a slab's arrays grow with use: minSlabEntries slots at first, doubling
// up to the full 4096. A rank pays for the handles it creates, not for a
// whole slab at its first CommDup; the handle layout above is unchanged.
//
// Predefined constants (MPI_COMM_WORLD, MPI_DOUBLE, MPI_SUM, ...) are
// compile-time integers with the builtin flag set. Their values are the
// same in the upper and lower halves and identical across sessions —
// the property the original MANA design silently relied on, and the
// reason it broke on Open MPI.
package mpich

import (
	"manasim/internal/mpi"
	"manasim/internal/mpibase"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// Handle bit layout.
const (
	kindShift   = 28
	builtinBit  = 1 << 27
	slabShift   = 12
	slabMask    = 0x7FFF // 15 bits of slab number
	slotMask    = 0xFFF  // 12 bits of slot
	slabEntries = slotMask + 1
	// minSlabEntries is a new slab's length; it doubles up to
	// slabEntries as slots are used.
	minSlabEntries = 16
)

// Encode packs kind, builtin flag, slab and slot into an MPICH-style
// 32-bit handle (widened to mpi.Handle). Exported for the handle-encoding
// property tests.
func Encode(kind mpi.Kind, builtin bool, slab, slot int) mpi.Handle {
	h := uint32(kind)<<kindShift | uint32(slab&slabMask)<<slabShift | uint32(slot&slotMask)
	if builtin {
		h |= builtinBit
	}
	return mpi.Handle(h)
}

// Decode splits an MPICH-style handle into its fields.
func Decode(h mpi.Handle) (kind mpi.Kind, builtin bool, slab, slot int) {
	v := uint32(h)
	return mpi.Kind(v >> kindShift), v&builtinBit != 0,
		int(v>>slabShift) & slabMask, int(v) & slotMask
}

// table is the two-level object table.
type table struct {
	slabs     map[int]*slab // first level, allocated on demand
	nextOwn   int           // next never-used (slab,slot) linear position
	free      []int         // freed linear positions, reused LIFO
	consts    [mpi.NumConstNames]mpi.Handle
	bound     [mpi.NumConstNames]bool
	constObjs [mpi.NumConstNames]any
}

// slab is one second-level table. Its arrays cover the slots in use so
// far; a slot past their length has never held an object.
type slab struct {
	objs  []any
	kinds []mpi.Kind
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
	s.objs, s.kinds = objs, kinds
}

// at returns the slab's object at slot, nil for a slot never grown to.
func (s *slab) at(slot int) any {
	if s == nil || slot >= len(s.objs) {
		return nil
	}
	return s.objs[slot]
}

func newTable() *table {
	return &table{slabs: make(map[int]*slab)}
}

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
	return Encode(kind, false, sl, slot)
}

// Lookup implements mpibase.HandleTable.
func (t *table) Lookup(kind mpi.Kind, h mpi.Handle) (any, error) {
	if h == mpi.HandleNull {
		return nil, mpi.Errorf(kind.ErrClass(), "null %v handle", kind)
	}
	k, builtin, sl, slot := Decode(h)
	if k != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x is %v, want %v", uint64(h), k, kind)
	}
	if builtin {
		return nil, mpi.Errorf(kind.ErrClass(), "builtin handle %#x not registered", uint64(h))
	}
	s := t.slabs[sl]
	if s.at(slot) == nil {
		return nil, mpi.Errorf(kind.ErrClass(), "dangling %v handle %#x", kind, uint64(h))
	}
	if s.kinds[slot] != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x kind mismatch", uint64(h))
	}
	return s.objs[slot], nil
}

// Remove implements mpibase.HandleTable.
func (t *table) Remove(h mpi.Handle) error {
	k, builtin, sl, slot := Decode(h)
	if builtin {
		return mpi.Errorf(k.ErrClass(), "cannot free builtin handle %#x", uint64(h))
	}
	s := t.slabs[sl]
	if s.at(slot) == nil {
		return mpi.Errorf(k.ErrClass(), "free of dangling handle %#x", uint64(h))
	}
	s.objs[slot] = nil
	s.kinds[slot] = mpi.KindNone
	t.free = append(t.free, sl*slabEntries+slot)
	return nil
}

// ConstHandle implements mpibase.HandleTable. MPICH constants are
// compile-time integers: the handle value is derived from the constant
// name alone and never varies.
func (t *table) ConstHandle(name mpi.ConstName, obj any) (mpi.Handle, error) {
	h := Encode(name.Kind(), true, 0, int(name))
	if !t.bound[name] {
		t.consts[name] = h
		t.bound[name] = true
		t.constObjs[name] = obj
	}
	return h, nil
}

// lookupConstObj resolves a builtin handle registered by ConstHandle.
func (t *table) lookupConstObj(h mpi.Handle) (any, bool) {
	_, builtin, _, slot := Decode(h)
	if !builtin || slot >= int(mpi.NumConstNames) {
		return nil, false
	}
	o := t.constObjs[slot]
	return o, o != nil
}

// New creates an MPICH library instance for one rank.
func New(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc {
	eng := mpibase.NewEngine(fab, rank, clock, net)
	tab := &fullTable{table: newTable()}
	return mpibase.NewProc(eng, tab, "mpich", 32, mpi.AllFeatures())
}

// fullTable augments table with builtin-handle resolution on Lookup:
// MPICH resolves builtin handles through static tables rather than the
// dynamic slab directory.
type fullTable struct {
	*table
}

// Lookup resolves builtin handles to their predefined objects and defers
// to the two-level table otherwise.
func (t *fullTable) Lookup(kind mpi.Kind, h mpi.Handle) (any, error) {
	if k, builtin, _, _ := Decode(h); builtin {
		if k != kind {
			return nil, mpi.Errorf(kind.ErrClass(), "handle %#x is %v, want %v", uint64(h), k, kind)
		}
		if o, ok := t.lookupConstObj(h); ok {
			return o, nil
		}
		return nil, mpi.Errorf(kind.ErrClass(), "builtin handle %#x not initialized", uint64(h))
	}
	return t.table.Lookup(kind, h)
}
