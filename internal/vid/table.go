package vid

import (
	"cmp"
	"fmt"
	"slices"

	"manasim/internal/mpi"
)

// physKey indexes the reverse (real→virtual) map. The kind participates
// because two implementations may reuse a numeric handle value across
// kinds (and ExaMPI aliases MPI_BYTE/MPI_CHAR, which MANA resolves to a
// single datatype entry).
type physKey struct {
	kind mpi.Kind
	phys mpi.Handle
}

// Table is the single two-level virtual-id table of the new design: a
// dense entry array indexed by VID index, plus an O(1) reverse map.
// One Table serves one rank's MANA instance; it is not safe for
// concurrent use (each rank goroutine owns its table). A slot Drop frees
// keeps its Entry, cleared so that VID == VIDNull marks it free, for the
// slot's next Add: a request costs no heap object once its slot is warm.
type Table struct {
	entries []*Entry // index 0 reserved (VIDNull); nil or VIDNull: free
	gens    []uint8
	free    []uint32
	byPhys  map[physKey]VID
	seq     uint64
}

// NewTable builds an empty table.
func NewTable() *Table {
	return &Table{
		entries: make([]*Entry, 1, 64), // slot 0 unused
		gens:    make([]uint8, 1, 64),
		byPhys:  make(map[physKey]VID),
	}
}

// Add registers a new object and returns its entry, which Drop clears for
// the slot's next Add. The physical handle may be mpi.HandleNull for
// lazily bound objects.
func (t *Table) Add(kind mpi.Kind, phys mpi.Handle, desc Descriptor, strategy Strategy) (*Entry, error) {
	if kind == mpi.KindNone || int(kind) > mpi.NumKinds {
		return nil, fmt.Errorf("vid: invalid kind %v", kind)
	}
	var idx uint32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if len(t.entries) > MaxEntries {
			return nil, fmt.Errorf("vid: table full (%d entries)", MaxEntries)
		}
		t.entries = append(t.entries, nil)
		t.gens = append(t.gens, 0)
		idx = uint32(len(t.entries) - 1)
	}
	t.seq++
	e := t.entries[idx]
	if e == nil { // never used, or a hole FromSnapshot left
		e = new(Entry)
		t.entries[idx] = e
	}
	*e = Entry{
		VID:      Make(kind, t.gens[idx], idx),
		Phys:     phys,
		Desc:     desc,
		Strategy: strategy,
		Seq:      t.seq,
	}
	if phys != mpi.HandleNull {
		t.byPhys[physKey{kind, phys}] = e.VID
	}
	return e, nil
}

// Resolve returns the entry behind v, validating kind and generation.
// This is the hot path of every MANA wrapper call: one bounds check and
// one array load (Section 4.1, problems 2 and 5 solved).
func (t *Table) Resolve(v VID) (*Entry, error) {
	idx := v.Index()
	if idx == 0 || int(idx) >= len(t.entries) {
		return nil, fmt.Errorf("vid: %v out of range", v)
	}
	e := t.entries[idx]
	if e == nil || e.VID == VIDNull {
		return nil, fmt.Errorf("vid: %v refers to a freed entry", v)
	}
	if e.VID != v {
		return nil, fmt.Errorf("vid: stale id %v (current %v)", v, e.VID)
	}
	return e, nil
}

// PhysOf is Resolve plus physical-handle extraction.
func (t *Table) PhysOf(v VID) (mpi.Handle, error) {
	e, err := t.Resolve(v)
	if err != nil {
		return mpi.HandleNull, err
	}
	return e.Phys, nil
}

// VirtOf performs the real→virtual translation: O(1), versus the legacy
// design's O(n) scan over map values. Used by the rare wrapper that
// receives a physical handle from the lower half (Section 4.1).
func (t *Table) VirtOf(kind mpi.Kind, phys mpi.Handle) (VID, bool) {
	v, ok := t.byPhys[physKey{kind, phys}]
	return v, ok
}

// Rebind updates the physical handle of v after the lower half
// re-created the object at restart (Section 4.2: "MANA then updates the
// internal structures to represent the new physical object id").
func (t *Table) Rebind(v VID, phys mpi.Handle) error {
	e, err := t.Resolve(v)
	if err != nil {
		return err
	}
	if e.Phys != mpi.HandleNull {
		delete(t.byPhys, physKey{v.Kind(), e.Phys})
	}
	e.Phys = phys
	if phys != mpi.HandleNull {
		t.byPhys[physKey{v.Kind(), phys}] = v
	}
	return nil
}

// MarkFreed flags the object as released by the application while
// keeping its descriptor available for dependency-ordered replay.
// The physical binding is dropped.
func (t *Table) MarkFreed(v VID) error {
	e, err := t.Resolve(v)
	if err != nil {
		return err
	}
	if e.Phys != mpi.HandleNull {
		delete(t.byPhys, physKey{v.Kind(), e.Phys})
		e.Phys = mpi.HandleNull
	}
	e.Freed = true
	return nil
}

// Drop removes an entry entirely (requests, whose lifecycle ends inside
// a run and which are never reconstructed), clearing it for the slot's
// next Add. The slot generation is bumped so stale VIDs fail Resolve.
func (t *Table) Drop(v VID) error {
	e, err := t.Resolve(v)
	if err != nil {
		return err
	}
	idx := v.Index()
	if e.Phys != mpi.HandleNull {
		delete(t.byPhys, physKey{v.Kind(), e.Phys})
	}
	*e = Entry{}
	t.gens[idx] = (t.gens[idx] + 1) & genMask
	t.free = append(t.free, idx)
	return nil
}

// Entries returns all live entries in creation order — the order replay
// must follow at restart so collective creation calls line up across
// ranks.
func (t *Table) Entries() []*Entry {
	out := make([]*Entry, 0, len(t.entries))
	for _, e := range t.entries {
		if e != nil && e.VID != VIDNull {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// ---------------------------------------------------------------------
// Snapshot / restore: the vid table rides inside the checkpoint image
// (Section 4.2: "the structures are then saved as part of the checkpoint
// image of the upper half").

// Snapshot is the serializable form of a Table. Physical handles are
// included for completeness (the paper stores them in the structs) but
// are meaningless after restart until rebound.
type Snapshot struct {
	Entries []Entry
	Seq     uint64
}

// Snapshot captures the table state.
func (t *Table) Snapshot() Snapshot {
	es := t.Entries()
	s := Snapshot{Entries: make([]Entry, len(es)), Seq: t.seq}
	for i, e := range es {
		s.Entries[i] = *e
		s.Entries[i].Desc.Ints = append([]int(nil), e.Desc.Ints...)
	}
	return s
}

// FromSnapshot rebuilds a table with identical VIDs from a snapshot.
// Physical bindings are cleared: restart rebinds them.
func FromSnapshot(s Snapshot) (*Table, error) {
	t := NewTable()
	maxIdx := uint32(0)
	for i := range s.Entries {
		if idx := s.Entries[i].VID.Index(); idx > maxIdx {
			maxIdx = idx
		}
	}
	if int(maxIdx) > MaxEntries {
		return nil, fmt.Errorf("vid: snapshot index %d out of range", maxIdx)
	}
	t.entries = make([]*Entry, maxIdx+1)
	t.gens = make([]uint8, maxIdx+1)
	for i := range s.Entries {
		e := s.Entries[i] // copy
		idx := e.VID.Index()
		if idx == 0 {
			return nil, fmt.Errorf("vid: snapshot contains null index")
		}
		if t.entries[idx] != nil {
			return nil, fmt.Errorf("vid: snapshot duplicates index %d", idx)
		}
		e.Phys = mpi.HandleNull // stale lower-half handle: must rebind
		t.entries[idx] = &e
		t.gens[idx] = e.VID.Gen()
	}
	// Unoccupied slots become free-list entries.
	for idx := uint32(1); idx <= maxIdx; idx++ {
		if t.entries[idx] == nil {
			t.free = append(t.free, idx)
		}
	}
	t.seq = s.Seq
	return t, nil
}
