package mpibase

import (
	"manasim/internal/mpi"
)

// The two handle-table families of paper Section 3. An implementation
// package picks one and parameterises it: the MPICH family (mpich,
// craympi) a SlabLayout, the pointer family (openmpi, exampi) an
// AddrTable's base address and alignment.

// Fixed bits of every SlabLayout handle.
const (
	slabKindShift = 28
	slabBuiltin   = 1 << 27
	slabVendor    = 1 << 26
	// minSlabEntries is a new slab's length; it doubles up to the
	// layout's slots per slab as slots are used.
	minSlabEntries = 16
)

// SlabLayout is a 32-bit MPICH-family id, the index into a two-level
// table similar to a two-level page table. From the top bit down:
//
//	bits 31..28  object kind (communicator, group, request, op, datatype)
//	bit  27      builtin flag (predefined constants)
//	bit  26      vendor tag, on every handle, builtin ones included, if Vendor
//	GenBits      generation of the slot (none if GenBits is 0)
//	SlabBits     first-level index (slab number)
//	SlotBits     second-level index (slot within a 1<<SlotBits-entry slab)
type SlabLayout struct {
	Vendor                      bool
	GenBits, SlabBits, SlotBits int
}

// Encode packs kind, builtin flag, generation, slab and slot into a
// handle of layout l (widened to mpi.Handle).
func (l SlabLayout) Encode(kind mpi.Kind, builtin bool, gen, slab, slot int) mpi.Handle {
	h := uint32(kind)<<slabKindShift |
		uint32(gen&(1<<l.GenBits-1))<<(l.SlabBits+l.SlotBits) |
		uint32(slab&(1<<l.SlabBits-1))<<l.SlotBits |
		uint32(slot&(1<<l.SlotBits-1))
	if builtin {
		h |= slabBuiltin
	}
	if l.Vendor {
		h |= slabVendor
	}
	return mpi.Handle(h)
}

// Decode splits a handle of layout l into its fields.
func (l SlabLayout) Decode(h mpi.Handle) (kind mpi.Kind, builtin bool, gen, slab, slot int) {
	v := uint32(h)
	return mpi.Kind(v >> slabKindShift), v&slabBuiltin != 0,
		int(v>>(l.SlabBits+l.SlotBits)) & (1<<l.GenBits - 1),
		int(v>>l.SlotBits) & (1<<l.SlabBits - 1),
		int(v) & (1<<l.SlotBits - 1)
}

// SlabTable is the MPICH family's object table under one SlabLayout.
// Slabs are allocated when the first object lands in one, and a slab's
// arrays grow with use, minSlabEntries slots at first, doubling up to
// the layout's slots per slab: a rank pays for the handles it creates,
// not for a whole slab at its first CommDup. Freed slots are reused
// LIFO; with generation bits, a free moves the slot to its next
// generation, so a stale handle to a reused slot fails instead of
// resolving to the new object.
//
// Predefined constants are compile-time integers with the builtin flag
// set: the same in the upper and lower halves and in every session —
// the property the original MANA design silently relied on, and the
// reason it broke on Open MPI.
type SlabTable struct {
	layout    SlabLayout
	slabs     []*slab // first level, slab i at index i
	nextOwn   int     // next never-used (slab,slot) linear position
	free      []int   // freed linear positions, reused LIFO
	constObjs [mpi.NumConstNames]any
}

// slab is one second-level table. Its arrays cover the slots in use so
// far; a slot past their length has never held an object and is at
// generation 0. gens is nil under a layout without generation bits.
type slab struct {
	objs  []any
	kinds []mpi.Kind
	gens  []uint8
}

// NewSlabTable returns an empty table of layout l.
func NewSlabTable(l SlabLayout) *SlabTable { return &SlabTable{layout: l} }

// grow extends s to cover slot, doubling from minSlabEntries and never
// past entries; a layout with generation bits grows gens too.
func (s *slab) grow(slot, entries int, gens bool) {
	if slot < len(s.objs) {
		return
	}
	n := max(minSlabEntries, len(s.objs))
	for n <= slot {
		n *= 2
	}
	n = min(n, entries)
	s.objs = grown(s.objs, n)
	s.kinds = grown(s.kinds, n)
	if gens {
		s.gens = grown(s.gens, n)
	}
}

// grown returns a copy of s lengthened to n.
func grown[T any](s []T, n int) []T {
	g := make([]T, n)
	copy(g, s)
	return g
}

// at returns the slab's object at slot, nil for a slot never grown to.
func (s *slab) at(slot int) any {
	if s == nil || slot >= len(s.objs) {
		return nil
	}
	return s.objs[slot]
}

// gen returns slot's generation, 0 without generation bits.
func (s *slab) gen(slot int) int {
	if s.gens == nil {
		return 0
	}
	return int(s.gens[slot])
}

// slab returns slab sl, nil if none was allocated.
func (t *SlabTable) slab(sl int) *slab {
	if sl >= len(t.slabs) {
		return nil
	}
	return t.slabs[sl]
}

// Insert implements HandleTable.
func (t *SlabTable) Insert(kind mpi.Kind, obj any) mpi.Handle {
	var pos int
	if n := len(t.free); n > 0 {
		pos = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		pos = t.nextOwn
		t.nextOwn++
	}
	entries := 1 << t.layout.SlotBits
	sl, slot := pos/entries, pos%entries
	if sl == len(t.slabs) {
		t.slabs = append(t.slabs, &slab{})
	}
	s := t.slabs[sl]
	s.grow(slot, entries, t.layout.GenBits > 0)
	s.objs[slot] = obj
	s.kinds[slot] = kind
	return t.layout.Encode(kind, false, s.gen(slot), sl, slot)
}

// Lookup implements HandleTable. A builtin handle resolves to the
// object its constant was bound to; any other handle must name a live
// slot of its kind, at its generation.
func (t *SlabTable) Lookup(kind mpi.Kind, h mpi.Handle) (any, error) {
	if h == mpi.HandleNull {
		return nil, mpi.Errorf(kind.ErrClass(), "null %v handle", kind)
	}
	k, builtin, gen, sl, slot := t.layout.Decode(h)
	if k != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x is %v, want %v", uint64(h), k, kind)
	}
	if builtin {
		if slot < int(mpi.NumConstNames) && t.constObjs[slot] != nil {
			return t.constObjs[slot], nil
		}
		return nil, mpi.Errorf(kind.ErrClass(), "builtin handle %#x not initialized", uint64(h))
	}
	s := t.slab(sl)
	if s.at(slot) == nil {
		return nil, mpi.Errorf(kind.ErrClass(), "dangling %v handle %#x", kind, uint64(h))
	}
	if s.gen(slot) != gen {
		return nil, mpi.Errorf(kind.ErrClass(), "stale %v handle %#x: generation %d, slot at %d", kind, uint64(h), gen, s.gen(slot))
	}
	if s.kinds[slot] != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x kind mismatch", uint64(h))
	}
	return s.objs[slot], nil
}

// Remove implements HandleTable, bumping the slot's generation under a
// layout that has one.
func (t *SlabTable) Remove(h mpi.Handle) error {
	k, builtin, gen, sl, slot := t.layout.Decode(h)
	if builtin {
		return mpi.Errorf(k.ErrClass(), "cannot free builtin handle %#x", uint64(h))
	}
	s := t.slab(sl)
	if s.at(slot) == nil {
		return mpi.Errorf(k.ErrClass(), "free of dangling handle %#x", uint64(h))
	}
	if s.gen(slot) != gen {
		return mpi.Errorf(k.ErrClass(), "free with stale handle %#x", uint64(h))
	}
	s.objs[slot] = nil
	s.kinds[slot] = mpi.KindNone
	if s.gens != nil {
		s.gens[slot] = (s.gens[slot] + 1) & (1<<t.layout.GenBits - 1)
	}
	t.free = append(t.free, sl<<t.layout.SlotBits+slot)
	return nil
}

// ConstHandle implements HandleTable: the handle is derived from the
// constant name alone and never varies.
func (t *SlabTable) ConstHandle(name mpi.ConstName, obj any) (mpi.Handle, error) {
	if t.constObjs[name] == nil {
		t.constObjs[name] = obj
	}
	return t.layout.Encode(name.Kind(), true, 0, 0, int(name)), nil
}

// AddrTable is the pointer family's object table: a handle is the
// simulated address of the object, 64-bit, handed out from base in
// steps of align and never reused. The base is the implementation's to
// choose; salting it with the session makes a restarted library hand
// out different addresses, constants included, as a re-executed Open
// MPI or ExaMPI does (paper Section 4.3). A constant is bound to a fresh
// address on first use and cannot be freed.
type AddrTable struct {
	base, align, next uint64
	objs              map[uint64]addrEntry
	consts            [mpi.NumConstNames]mpi.Handle
}

type addrEntry struct {
	kind mpi.Kind
	obj  any
}

// NewAddrTable returns an empty table handing out addresses from base
// in steps of align.
func NewAddrTable(base, align uint64) *AddrTable {
	return &AddrTable{base: base, align: align, objs: make(map[uint64]addrEntry)}
}

// Insert implements HandleTable.
func (a *AddrTable) Insert(kind mpi.Kind, obj any) mpi.Handle {
	addr := a.base + a.next
	a.next += a.align
	a.objs[addr] = addrEntry{kind: kind, obj: obj}
	return mpi.Handle(addr)
}

// Lookup implements HandleTable.
func (a *AddrTable) Lookup(kind mpi.Kind, h mpi.Handle) (any, error) {
	if h == mpi.HandleNull {
		return nil, mpi.Errorf(kind.ErrClass(), "null %v handle", kind)
	}
	e, ok := a.objs[uint64(h)]
	if !ok {
		return nil, mpi.Errorf(kind.ErrClass(), "%v handle %#x does not point into this library instance", kind, uint64(h))
	}
	if e.kind != kind {
		return nil, mpi.Errorf(kind.ErrClass(), "handle %#x points to %v, want %v", uint64(h), e.kind, kind)
	}
	return e.obj, nil
}

// Remove implements HandleTable. Freeing an address the table never
// handed out is MPI_ERR_ARG: nothing says which kind it was meant as.
func (a *AddrTable) Remove(h mpi.Handle) error {
	e, ok := a.objs[uint64(h)]
	if !ok {
		return mpi.Errorf(mpi.ErrArg, "free of wild pointer %#x", uint64(h))
	}
	for _, c := range a.consts {
		if c == h {
			return mpi.Errorf(e.kind.ErrClass(), "cannot free predefined object %#x", uint64(h))
		}
	}
	delete(a.objs, uint64(h))
	return nil
}

// ConstHandle implements HandleTable: the constant's address is bound
// on first use and returned from then on.
func (a *AddrTable) ConstHandle(name mpi.ConstName, obj any) (mpi.Handle, error) {
	if a.consts[name] == mpi.HandleNull {
		a.consts[name] = a.Insert(name.Kind(), obj)
	}
	return a.consts[name], nil
}
