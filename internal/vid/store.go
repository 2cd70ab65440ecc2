package vid

import (
	"fmt"

	"manasim/internal/mpi"
)

// Store is the interface MANA's wrappers program against, implemented by
// both virtual-id designs:
//
//   - the new single-table design of this package (the paper's
//     contribution), and
//   - the legacy per-kind string-keyed map design in package vidlegacy
//     (the pre-paper production MANA, kept as the comparison baseline of
//     Figure 2 and the ablation benchmarks).
//
// Virtual handles are expressed as mpi.Handle so either design can define
// its own bit patterns. The kind is always passed explicitly because the
// legacy design cannot recover it from a bare int id — exactly the
// deficiency (Section 4.1, problem 1) the VID's embedded kind tag fixes.
type Store interface {
	// DesignName identifies the design ("virtid" or "legacy").
	DesignName() string

	// Add registers an object and returns its virtual handle.
	Add(kind mpi.Kind, phys mpi.Handle, d Descriptor, s Strategy) (mpi.Handle, error)
	// Phys translates virtual→real (every wrapper call).
	Phys(kind mpi.Kind, virt mpi.Handle) (mpi.Handle, error)
	// Virt translates real→virtual (rare; one wrapper needs it).
	Virt(kind mpi.Kind, phys mpi.Handle) (mpi.Handle, bool)
	// Rebind points a virtual handle at a new physical object (restart).
	Rebind(kind mpi.Kind, virt mpi.Handle, phys mpi.Handle) error
	// MarkFreed records an application free, keeping the descriptor for
	// dependency-ordered replay.
	MarkFreed(kind mpi.Kind, virt mpi.Handle) error
	// Drop removes an entry entirely (request completion).
	Drop(kind mpi.Kind, virt mpi.Handle) error

	// GGID returns the stored global group id (0 if not computed).
	GGID(kind mpi.Kind, virt mpi.Handle) (uint32, error)
	// SetGGID stores a computed global group id.
	SetGGID(kind mpi.Kind, virt mpi.Handle, ggid uint32) error
	// SetDesc replaces the descriptor (the decode strategy rewrites
	// recipes at checkpoint time).
	SetDesc(kind mpi.Kind, virt mpi.Handle, d Descriptor) error

	// VirtFromRef converts a 32-bit descriptor reference (the low 32
	// bits of a virtual handle, as stored in Descriptor.Parent/Aux)
	// back to this design's full virtual handle.
	VirtFromRef(ref uint32) mpi.Handle

	// Items returns every entry (live and freed) in creation order, as
	// restart replay requires.
	Items() []Item
	// SnapshotStore serializes the store for the checkpoint image.
	SnapshotStore() StoreSnapshot
}

// Item is one store entry in design-independent form.
type Item struct {
	Kind     mpi.Kind
	Virt     mpi.Handle
	GGID     uint32
	Desc     Descriptor
	Strategy Strategy
	Seq      uint64
	Freed    bool
}

// StoreSnapshot is the serializable form of any Store.
type StoreSnapshot struct {
	Design string
	Items  []Item
	Seq    uint64
}

// RestoreStore rebuilds a store of the snapshot's design with identical
// virtual handles. handleBits configures the embedding for the new
// design; uniform forces the 64-bit MANA embedding (Section 9 future
// work, required for cross-implementation restart).
func RestoreStore(s StoreSnapshot, handleBits int, uniform bool) (Store, error) {
	switch s.Design {
	case "virtid":
		st := NewStore(handleBits, uniform)
		if err := st.load(s); err != nil {
			return nil, err
		}
		return st, nil
	default:
		return nil, fmt.Errorf("vid: cannot restore unknown store design %q", s.Design)
	}
}

// ---------------------------------------------------------------------
// TableStore: the new design behind the Store interface.

// TableStore adapts Table to the Store interface, embedding VIDs into
// virtual handles of the configured width.
type TableStore struct {
	tab        *Table
	handleBits int
	uniform    bool
}

// NewStore builds a TableStore for an implementation with the given
// declared handle width. uniform selects the MANA include-file mode
// where virtual handles are always 64-bit, enabling restart under a
// different MPI implementation (Section 9).
func NewStore(handleBits int, uniform bool) *TableStore {
	return &TableStore{tab: NewTable(), handleBits: handleBits, uniform: uniform}
}

// DesignName implements Store.
func (s *TableStore) DesignName() string { return "virtid" }

func (s *TableStore) embedBits() int {
	if s.uniform {
		return 64
	}
	return s.handleBits
}

func (s *TableStore) extract(kind mpi.Kind, virt mpi.Handle) (VID, error) {
	v, ok := Extract(virt, s.embedBits())
	if !ok {
		return VIDNull, fmt.Errorf("vid: handle %#x is not a MANA virtual handle", uint64(virt))
	}
	if v == VIDNull {
		return VIDNull, fmt.Errorf("vid: null %v handle", kind)
	}
	if v.Kind() != kind {
		return VIDNull, fmt.Errorf("vid: handle %v is %v, want %v", v, v.Kind(), kind)
	}
	return v, nil
}

// resolve is extract followed by Table.Resolve.
func (s *TableStore) resolve(kind mpi.Kind, virt mpi.Handle) (*Entry, error) {
	v, err := s.extract(kind, virt)
	if err != nil {
		return nil, err
	}
	return s.tab.Resolve(v)
}

// Add implements Store.
func (s *TableStore) Add(kind mpi.Kind, phys mpi.Handle, d Descriptor, strat Strategy) (mpi.Handle, error) {
	e, err := s.tab.Add(kind, phys, d, strat)
	if err != nil {
		return mpi.HandleNull, err
	}
	return Embed(e.VID, s.embedBits()), nil
}

// Phys implements Store.
func (s *TableStore) Phys(kind mpi.Kind, virt mpi.Handle) (mpi.Handle, error) {
	v, err := s.extract(kind, virt)
	if err != nil {
		return mpi.HandleNull, err
	}
	return s.tab.PhysOf(v)
}

// Virt implements Store.
func (s *TableStore) Virt(kind mpi.Kind, phys mpi.Handle) (mpi.Handle, bool) {
	v, ok := s.tab.VirtOf(kind, phys)
	if !ok {
		return mpi.HandleNull, false
	}
	return Embed(v, s.embedBits()), true
}

// Rebind implements Store.
func (s *TableStore) Rebind(kind mpi.Kind, virt mpi.Handle, phys mpi.Handle) error {
	v, err := s.extract(kind, virt)
	if err != nil {
		return err
	}
	return s.tab.Rebind(v, phys)
}

// MarkFreed implements Store.
func (s *TableStore) MarkFreed(kind mpi.Kind, virt mpi.Handle) error {
	v, err := s.extract(kind, virt)
	if err != nil {
		return err
	}
	return s.tab.MarkFreed(v)
}

// Drop implements Store.
func (s *TableStore) Drop(kind mpi.Kind, virt mpi.Handle) error {
	v, err := s.extract(kind, virt)
	if err != nil {
		return err
	}
	return s.tab.Drop(v)
}

// GGID implements Store.
func (s *TableStore) GGID(kind mpi.Kind, virt mpi.Handle) (uint32, error) {
	e, err := s.resolve(kind, virt)
	if err != nil {
		return 0, err
	}
	return e.GGID, nil
}

// SetGGID implements Store.
func (s *TableStore) SetGGID(kind mpi.Kind, virt mpi.Handle, ggid uint32) error {
	e, err := s.resolve(kind, virt)
	if err != nil {
		return err
	}
	e.GGID = ggid
	return nil
}

// SetDesc implements Store.
func (s *TableStore) SetDesc(kind mpi.Kind, virt mpi.Handle, d Descriptor) error {
	e, err := s.resolve(kind, virt)
	if err != nil {
		return err
	}
	e.Desc = d
	return nil
}

// VirtFromRef implements Store.
func (s *TableStore) VirtFromRef(ref uint32) mpi.Handle {
	if ref == 0 {
		return mpi.HandleNull
	}
	return Embed(VID(ref), s.embedBits())
}

// RefOf converts a virtual handle to its 32-bit descriptor reference:
// the VID occupies the first 32 bits of any virtual handle, so the
// conversion is a truncation in every design.
func RefOf(virt mpi.Handle) uint32 { return uint32(uint64(virt)) }

// Items implements Store.
func (s *TableStore) Items() []Item {
	es := s.tab.Entries()
	out := make([]Item, len(es))
	for i, e := range es {
		out[i] = Item{
			Kind:     e.VID.Kind(),
			Virt:     Embed(e.VID, s.embedBits()),
			GGID:     e.GGID,
			Desc:     e.Desc,
			Strategy: e.Strategy,
			Seq:      e.Seq,
			Freed:    e.Freed,
		}
	}
	return out
}

// SnapshotStore implements Store.
func (s *TableStore) SnapshotStore() StoreSnapshot {
	snap := s.tab.Snapshot()
	items := make([]Item, len(snap.Entries))
	for i := range snap.Entries {
		e := &snap.Entries[i]
		items[i] = Item{
			Kind:     e.VID.Kind(),
			Virt:     mpi.Handle(uint64(e.VID)), // design-internal: raw VID
			GGID:     e.GGID,
			Desc:     e.Desc,
			Strategy: e.Strategy,
			Seq:      e.Seq,
			Freed:    e.Freed,
		}
	}
	return StoreSnapshot{Design: "virtid", Items: items, Seq: snap.Seq}
}

// load rebuilds the table from a snapshot.
func (s *TableStore) load(snap StoreSnapshot) error {
	entries := make([]Entry, len(snap.Items))
	for i, it := range snap.Items {
		entries[i] = Entry{
			VID:      VID(uint32(uint64(it.Virt))),
			GGID:     it.GGID,
			Desc:     it.Desc,
			Strategy: it.Strategy,
			Seq:      it.Seq,
			Freed:    it.Freed,
		}
	}
	tab, err := FromSnapshot(Snapshot{Entries: entries, Seq: snap.Seq})
	if err != nil {
		return err
	}
	s.tab = tab
	return nil
}

var _ Store = (*TableStore)(nil)
