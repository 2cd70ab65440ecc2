// Package vidlegacy reimplements the pre-paper MANA virtual-id design as
// the comparison baseline (the "MANA/MPICH" bars of Figures 2-4 and the
// vid-design ablation benchmarks). It deliberately preserves the five
// deficiencies catalogued in Section 4.1 of the paper:
//
//  1. virtual ids are plain ints, which conflict with MPI
//     implementations whose handles are 64-bit pointers — the design
//     refuses to run on Open MPI or ExaMPI, exactly as the original
//     MANA could not;
//  2. the per-kind singleton maps are selected by comparing type-name
//     strings ("MPI_Comm", "MPI_Datatype", ...), the macro-encoded
//     string comparison whose overhead the paper measured;
//  3. data associated with an id (descriptor, ggid, strategy, freed
//     flag) lives in separate maps, so one logical access performs
//     several lookups;
//  4. creation calls must be replayed on restart (shared with the new
//     design — this is inherent to checkpointing);
//  5. real→virtual translation iterates over all map values: O(n).
package vidlegacy

import (
	"fmt"

	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// kindName spells the MPI type name used as the map selector. The
// original design keyed its C++ singleton maps by exactly these strings.
func kindName(k mpi.Kind) string {
	switch k {
	case mpi.KindComm:
		return "MPI_Comm"
	case mpi.KindGroup:
		return "MPI_Group"
	case mpi.KindRequest:
		return "MPI_Request"
	case mpi.KindOp:
		return "MPI_Op"
	case mpi.KindDatatype:
		return "MPI_Datatype"
	default:
		return "MPI_NULL"
	}
}

// Store is the legacy design. Each logical attribute lives in its own
// string-selected map, as problem 3 requires.
type Store struct {
	ids    map[string]map[int]mpi.Handle // virtual id -> physical handle
	descs  map[string]map[int]vid.Descriptor
	ggids  map[string]map[int]uint32
	strats map[string]map[int]vid.Strategy
	seqs   map[string]map[int]uint64
	freed  map[string]map[int]bool
	next   map[string]int
	seq    uint64
}

// New builds an empty legacy store.
func New() *Store {
	return &Store{
		ids:    make(map[string]map[int]mpi.Handle),
		descs:  make(map[string]map[int]vid.Descriptor),
		ggids:  make(map[string]map[int]uint32),
		strats: make(map[string]map[int]vid.Strategy),
		seqs:   make(map[string]map[int]uint64),
		freed:  make(map[string]map[int]bool),
		next:   make(map[string]int),
	}
}

// DesignName implements vid.Store.
func (s *Store) DesignName() string { return "legacy" }

// CompatibleWith reports whether the legacy design can serve an MPI
// implementation whose mpi.h declares handle types of the given width:
// int virtual ids cannot be stored in pointer-typed handles without colliding with real addresses
// (Section 4.1, problem 1), so only 32-bit-handle implementations (the
// MPICH family) are supported.
func (s *Store) CompatibleWith(handleBits int) error {
	if handleBits > 32 {
		return fmt.Errorf("vidlegacy: int virtual ids are incompatible with %d-bit MPI handle types (the original MANA limitation this paper removes)", handleBits)
	}
	return nil
}

// sub returns the inner map for a type name, creating it on demand. The
// repeated map[string] indexing is the string-comparison overhead of
// problem 2 (Go map lookup on string keys hashes and compares the key).
func sub[T any](outer map[string]map[int]T, name string) map[int]T {
	m, ok := outer[name]
	if !ok {
		m = make(map[int]T)
		outer[name] = m
	}
	return m
}

// Add implements vid.Store.
func (s *Store) Add(kind mpi.Kind, phys mpi.Handle, d vid.Descriptor, strat vid.Strategy) (mpi.Handle, error) {
	if kind == mpi.KindNone {
		return mpi.HandleNull, fmt.Errorf("vidlegacy: invalid kind")
	}
	name := kindName(kind)
	id := s.next[name] + 1 // ids start at 1; 0 is the null handle
	s.next[name] = id
	s.seq++
	sub(s.ids, name)[id] = phys
	sub(s.descs, name)[id] = d
	sub(s.strats, name)[id] = strat
	sub(s.seqs, name)[id] = s.seq
	return mpi.Handle(uint64(uint32(id))), nil
}

// lookupID validates a virtual handle and returns the int id.
func (s *Store) lookupID(kind mpi.Kind, virt mpi.Handle) (string, int, error) {
	if uint64(virt)>>32 != 0 {
		return "", 0, fmt.Errorf("vidlegacy: virtual handle %#x does not fit an int id", uint64(virt))
	}
	name := kindName(kind)
	id := int(uint32(virt))
	if _, ok := sub(s.ids, name)[id]; !ok {
		return name, id, fmt.Errorf("vidlegacy: unknown %s virtual id %d", name, id)
	}
	return name, id, nil
}

// Phys implements vid.Store.
func (s *Store) Phys(kind mpi.Kind, virt mpi.Handle) (mpi.Handle, error) {
	name, id, err := s.lookupID(kind, virt)
	if err != nil {
		return mpi.HandleNull, err
	}
	if sub(s.freed, name)[id] {
		return mpi.HandleNull, fmt.Errorf("vidlegacy: use of freed %s id %d", name, id)
	}
	return sub(s.ids, name)[id], nil
}

// Virt implements vid.Store with the legacy O(n) scan over map values
// (Section 4.1, problem 5).
func (s *Store) Virt(kind mpi.Kind, phys mpi.Handle) (mpi.Handle, bool) {
	name := kindName(kind)
	for id, ph := range sub(s.ids, name) {
		if ph == phys && !sub(s.freed, name)[id] {
			return mpi.Handle(uint64(uint32(id))), true
		}
	}
	return mpi.HandleNull, false
}

// Rebind implements vid.Store.
func (s *Store) Rebind(kind mpi.Kind, virt mpi.Handle, phys mpi.Handle) error {
	name, id, err := s.lookupID(kind, virt)
	if err != nil {
		return err
	}
	sub(s.ids, name)[id] = phys
	return nil
}

// MarkFreed implements vid.Store.
func (s *Store) MarkFreed(kind mpi.Kind, virt mpi.Handle) error {
	name, id, err := s.lookupID(kind, virt)
	if err != nil {
		return err
	}
	sub(s.freed, name)[id] = true
	sub(s.ids, name)[id] = mpi.HandleNull
	return nil
}

// Drop implements vid.Store.
func (s *Store) Drop(kind mpi.Kind, virt mpi.Handle) error {
	name, id, err := s.lookupID(kind, virt)
	if err != nil {
		return err
	}
	delete(sub(s.ids, name), id)
	delete(sub(s.descs, name), id)
	delete(sub(s.ggids, name), id)
	delete(sub(s.strats, name), id)
	delete(sub(s.seqs, name), id)
	delete(sub(s.freed, name), id)
	return nil
}

// GGID implements vid.Store (a second lookup in a separate map:
// problem 3).
func (s *Store) GGID(kind mpi.Kind, virt mpi.Handle) (uint32, error) {
	name, id, err := s.lookupID(kind, virt)
	if err != nil {
		return 0, err
	}
	return sub(s.ggids, name)[id], nil
}

// SetGGID implements vid.Store.
func (s *Store) SetGGID(kind mpi.Kind, virt mpi.Handle, ggid uint32) error {
	name, id, err := s.lookupID(kind, virt)
	if err != nil {
		return err
	}
	sub(s.ggids, name)[id] = ggid
	return nil
}

// SetDesc implements vid.Store.
func (s *Store) SetDesc(kind mpi.Kind, virt mpi.Handle, d vid.Descriptor) error {
	name, id, err := s.lookupID(kind, virt)
	if err != nil {
		return err
	}
	sub(s.descs, name)[id] = d
	return nil
}

// VirtFromRef implements vid.Store: legacy virtual handles are the int
// id itself.
func (s *Store) VirtFromRef(ref uint32) mpi.Handle {
	return mpi.Handle(uint64(ref))
}

// Items implements vid.Store.
func (s *Store) Items() []vid.Item {
	var out []vid.Item
	for _, kind := range []mpi.Kind{mpi.KindComm, mpi.KindGroup, mpi.KindRequest, mpi.KindOp, mpi.KindDatatype} {
		name := kindName(kind)
		for id := 1; id <= s.next[name]; id++ {
			if _, ok := sub(s.ids, name)[id]; !ok {
				continue
			}
			out = append(out, vid.Item{
				Kind:     kind,
				Virt:     mpi.Handle(uint64(uint32(id))),
				GGID:     sub(s.ggids, name)[id],
				Desc:     sub(s.descs, name)[id],
				Strategy: sub(s.strats, name)[id],
				Seq:      sub(s.seqs, name)[id],
				Freed:    sub(s.freed, name)[id],
			})
		}
	}
	// Creation order across kinds.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq < out[j-1].Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// SnapshotStore implements vid.Store.
func (s *Store) SnapshotStore() vid.StoreSnapshot {
	return vid.StoreSnapshot{Design: "legacy", Items: s.Items(), Seq: s.seq}
}

// Restore rebuilds a legacy store from a snapshot of the legacy design.
func Restore(snap vid.StoreSnapshot) (*Store, error) {
	if snap.Design != "legacy" {
		return nil, fmt.Errorf("vidlegacy: cannot restore %q snapshot", snap.Design)
	}
	s := New()
	for _, it := range snap.Items {
		name := kindName(it.Kind)
		id := int(uint32(uint64(it.Virt)))
		sub(s.ids, name)[id] = mpi.HandleNull // rebind later
		sub(s.descs, name)[id] = it.Desc
		sub(s.ggids, name)[id] = it.GGID
		sub(s.strats, name)[id] = it.Strategy
		sub(s.seqs, name)[id] = it.Seq
		if it.Freed {
			sub(s.freed, name)[id] = true
		}
		if id > s.next[name] {
			s.next[name] = id
		}
	}
	s.seq = snap.Seq
	return s, nil
}

var _ vid.Store = (*Store)(nil)
