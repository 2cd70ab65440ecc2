package apps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"manasim/internal/app"
	"manasim/internal/ckptimg"
	mana "manasim/internal/core"
)

// boundary is rank 0's state at one step boundary of a native run.
type boundary struct {
	snap []byte
	sum  uint64
}

// tap records rank 0's snapshot and checksum after Setup and after
// every step.
type tap struct {
	app.Instance
	mu  *sync.Mutex
	out *[]boundary
}

func (p *tap) record(env *app.Env) error {
	if env.Rank != 0 {
		return nil
	}
	snap, err := p.Instance.Snapshot()
	if err != nil {
		return err
	}
	p.mu.Lock()
	*p.out = append(*p.out, boundary{snap, p.Instance.Checksum()})
	p.mu.Unlock()
	return nil
}

func (p *tap) Setup(env *app.Env) error {
	if err := p.Instance.Setup(env); err != nil {
		return err
	}
	return p.record(env)
}

func (p *tap) Step(env *app.Env, step int) error {
	if err := p.Instance.Step(env, step); err != nil {
		return err
	}
	return p.record(env)
}

// boundaries runs the application natively on four ranks and returns
// rank 0's state after Setup ([0]) and after each of its steps.
func boundaries(t testing.TB, name string, in Input) []boundary {
	t.Helper()
	var mu sync.Mutex
	var out []boundary
	inner := factoryOf(t, name, in)
	cfg := cfgFor(t, "mpich")
	if _, err := mana.RunNative(cfg, 4, func() app.Instance {
		return &tap{Instance: inner(), mu: &mu, out: &out}
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(out) != in.normalized().SimSteps+1 {
		t.Fatalf("%s: %d boundaries recorded", name, len(out))
	}
	return out
}

// smallInput keeps snapshots at a few hundred bytes, so the damage
// tables can try every prefix.
func smallInput() Input {
	in := tinyInput(4)
	in.Steps, in.SimSteps, in.Local = 3, 3, 2
	return in
}

func fresh(t testing.TB, name string, in Input) app.Instance {
	t.Helper()
	return factoryOf(t, name, in)()
}

// snapNames are the registered applications and the tour, which the
// registry leaves out.
func snapNames() []string { return append(Names(), "tour") }

// factoryOf builds the factory of a registered application or, for
// "tour", of a tour as long as the input's run.
func factoryOf(t testing.TB, name string, in Input) app.Factory {
	t.Helper()
	if name == "tour" {
		return NewTour(in.normalized().SimSteps)
	}
	spec, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.New(in)
}

// stateOf exposes an instance's state struct to the layout walker.
func stateOf(inst app.Instance) any {
	switch v := inst.(type) {
	case *hpcg:
		return &v.st
	case *lammps:
		return &v.st
	case *comd:
		return &v.st
	case *lulesh:
		return &v.st
	case *sw4:
		return &v.st
	case *tour:
		return &v.st
	}
	panic("unknown instance type")
}

// layout is where a state struct's fields lie in its snapshot, worked
// out from the struct declaration alone: the fields methods promise the
// declaration order, so a field listed out of order or left out shows
// up as a disagreement between this walk and the codec.
type layout struct {
	size    int            // snapshot length
	lengths []int          // byte offsets of the slices' length words
	offset  map[string]int // byte offset of every top-level field
}

func layoutOf(st any) layout {
	l := layout{size: 8, offset: map[string]int{}}
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		l.offset[v.Type().Field(i).Name] = l.size
		switch f.Kind() {
		case reflect.Struct:
			l.size += 8 * f.NumField()
		case reflect.Slice:
			l.lengths = append(l.lengths, l.size)
			l.size += 8 + 8*f.Len()
		default:
			l.size += 8
		}
	}
	return l
}

// TestSnapshotRoundTrip: Snapshot -> Restore -> Snapshot is
// byte-identical and the checksum survives, at every boundary of a run.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, name := range snapNames() {
		t.Run(name, func(t *testing.T) {
			in := tinyInput(4)
			for k, b := range boundaries(t, name, in) {
				inst := fresh(t, name, in)
				if err := inst.Restore(b.snap); err != nil {
					t.Fatalf("boundary %d: %v", k, err)
				}
				again, err := inst.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, b.snap) {
					t.Fatalf("boundary %d: snapshot changed across a restore", k)
				}
				if inst.Checksum() != b.sum {
					t.Fatalf("boundary %d: checksum changed across a restore", k)
				}
				if want := layoutOf(stateOf(inst)).size; len(b.snap) != want {
					t.Fatalf("boundary %d: snapshot is %d bytes, the state struct lays out to %d", k, len(b.snap), want)
				}
			}
		})
	}
}

// fill gives every field of a state struct a distinct nonzero value,
// with slices of the lengths the input implies.
func fill(st any, lens map[string]int) {
	next := uint64(2)
	var set func(v reflect.Value, name string)
	set = func(v reflect.Value, name string) {
		next++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				set(v.Field(i), v.Type().Field(i).Name)
			}
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), lens[name], lens[name])
			for i := 0; i < s.Len(); i++ {
				set(s.Index(i), "")
			}
			v.Set(s)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.5)
		case reflect.Uint64:
			v.SetUint(next)
		default:
			v.SetInt(int64(next))
		}
	}
	set(reflect.ValueOf(st).Elem(), "")
}

// TestSnapshotCoversEveryField fails the day a state struct, Input or
// Decomp3D gains a field its fields method does not list.
func TestSnapshotCoversEveryField(t *testing.T) {
	const local, size = 2, 4
	n3 := local * local * local
	cases := []struct {
		st, zero snapState
		lens     map[string]int
	}{
		{&hpcgState{}, &hpcgState{}, map[string]int{"Partition": size, "A": 7 * n3, "X": n3, "R": n3, "Pv": n3, "Ap": n3}},
		{&lammpsState{}, &lammpsState{}, map[string]int{"Pos": 3 * n3, "Vel": 3 * n3, "Frc": 3 * n3}},
		{&comdState{}, &comdState{}, map[string]int{"Pos": 48, "Vel": 48, "Force": 48}},
		{&luleshState{}, &luleshState{}, map[string]int{"E": n3, "P": n3, "Q": n3}},
		{&sw4State{}, &sw4State{}, map[string]int{"U": 4, "Up": 4}},
	}
	for _, tc := range cases {
		fill(tc.st, tc.lens)
		v := reflect.ValueOf(tc.st).Elem()
		v.FieldByName("In").FieldByName("Local").SetInt(local)
		v.FieldByName("D").FieldByName("Size").SetInt(size)
		var c snapCodec
		tc.st.fields(&c)
		c.allocate()
		tc.st.fields(&c)
		snap := c.buf
		if err := decodeSnapshot("test", snap, tc.zero); err != nil {
			t.Fatalf("%T: %v", tc.st, err)
		}
		if !reflect.DeepEqual(tc.st, tc.zero) {
			t.Errorf("%T: a field did not survive the codec:\n wrote %+v\n read  %+v", tc.st, tc.st, tc.zero)
		}
		if want := layoutOf(tc.st).size; len(snap) != want {
			t.Errorf("%T: snapshot is %d bytes, the struct lays out to %d", tc.st, len(snap), want)
		}
	}
}

// refuse asserts that Restore rejects data with a typed error naming
// the application, and leaves the instance as it was.
func refuse(t *testing.T, name string, inst app.Instance, data []byte, what string) {
	t.Helper()
	before := inst.Checksum()
	err := inst.Restore(data)
	var se *SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("%s: %s: Restore returned %v, want a *SnapshotError", name, what, err)
	}
	if se.App != name || se.Field == "" {
		t.Fatalf("%s: %s: error does not name application and field: %v", name, what, err)
	}
	if inst.Checksum() != before {
		t.Fatalf("%s: %s: a refused Restore changed the instance", name, what)
	}
}

// TestRestoreRejectsDamage: every proper prefix, every single-bit flip
// in the tag/version word or a length word, appended bytes and another
// application's snapshot are errors, never a panic.
func TestRestoreRejectsDamage(t *testing.T) {
	in := smallInput()
	snaps := map[string][]byte{}
	for _, name := range snapNames() {
		bs := boundaries(t, name, in)
		snaps[name] = bs[len(bs)-1].snap
	}
	for _, name := range snapNames() {
		t.Run(name, func(t *testing.T) {
			snap := snaps[name]
			inst := fresh(t, name, in)
			if err := inst.Restore(snap); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < len(snap); n++ {
				refuse(t, name, inst, snap[:n], "prefix")
			}
			words := append([]int{0}, layoutOf(stateOf(inst)).lengths...)
			if len(words) < 3 {
				t.Fatalf("layout walk found %d length words", len(words)-1)
			}
			for _, off := range words {
				for bit := 0; bit < 64; bit++ {
					bad := append([]byte(nil), snap...)
					bad[off+bit/8] ^= 1 << (bit % 8)
					refuse(t, name, inst, bad, "bit flip in a tag or length word")
				}
			}
			refuse(t, name, inst, append(append([]byte(nil), snap...), 0), "one byte appended")
			refuse(t, name, inst, append(append([]byte(nil), snap...), make([]byte, 8)...), "one word appended")
			for other, foreign := range snaps {
				if other != name {
					refuse(t, name, inst, foreign, other+" snapshot")
				}
			}
			// The instance still holds what it was given first.
			if again, _ := inst.Snapshot(); !bytes.Equal(again, snap) {
				t.Fatal("refused restores changed the state")
			}
		})
	}
}

// TestRestoreBoundsAllocation: a length word is checked against the
// bytes that remain before anything is allocated for it.
func TestRestoreBoundsAllocation(t *testing.T) {
	in := smallInput()
	for _, name := range snapNames() {
		bs := boundaries(t, name, in)
		snap := bs[0].snap
		inst := instRestored(t, name, in, snap)
		for _, off := range layoutOf(stateOf(inst)).lengths {
			bad := append([]byte(nil), snap...)
			binary.LittleEndian.PutUint64(bad[off:], 1<<40)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := inst.Restore(bad)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: terabyte length word at %d accepted", name, off)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(bad))+4096 {
				t.Fatalf("%s: refusing a %d-byte snapshot allocated %d bytes", name, len(bad), got)
			}
		}
	}
}

func instRestored(t testing.TB, name string, in Input, snap []byte) app.Instance {
	t.Helper()
	inst := fresh(t, name, in)
	if err := inst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestSnapshotAllocatesOnce: the snapshot is sized, allocated and
// filled — no second buffer, no regrowth.
func TestSnapshotAllocatesOnce(t *testing.T) {
	in := tinyInput(4)
	for _, name := range Names() {
		inst := instRestored(t, name, in, boundaries(t, name, in)[1].snap)
		if n := testing.AllocsPerRun(20, func() {
			if _, err := inst.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: Snapshot allocates %v times, want 1", name, n)
		}
	}
}

// TestSnapshotIntoRecycledBuffer: the checkpoint path releases every
// snapshot it has encoded (app.ReleaseSnapshot), and the next Snapshot
// fills that buffer. A snapshot drawn into a released 0xAA-filled
// buffer is byte-identical to one drawn from an empty pool, the
// instance keeps no reference to a snapshot it returned, and the
// recycled snapshot restores to the same checksum.
func TestSnapshotIntoRecycledBuffer(t *testing.T) {
	in := tinyInput(4)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b := boundaries(t, name, in)[2]
			inst := instRestored(t, name, in, b.snap)
			// Two collections empty a sync.Pool.
			runtime.GC()
			runtime.GC()
			want, err := inst.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, b.snap) {
				t.Fatal("snapshot from an empty pool differs from the boundary's")
			}

			// The pool is per P, and under the race detector it drops a
			// random quarter of what is put back: release until a
			// released buffer comes back.
			var got []byte
			for try := 0; try < 64 && got == nil; try++ {
				stale := bytes.Repeat([]byte{0xAA}, len(want))
				app.ReleaseSnapshot(stale)
				snap, err := inst.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if &snap[0] == &stale[0] {
					got = snap
				}
			}
			if got == nil {
				t.Fatal("Snapshot never drew a released buffer")
			}
			if !bytes.Equal(got, want) {
				t.Fatal("snapshot into a recycled 0xAA-filled buffer differs from one into a fresh buffer")
			}

			for i := range got {
				got[i] ^= 0xFF
			}
			again, err := inst.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Fatal("overwriting a returned snapshot changed the next one: the instance kept a reference")
			}
			for i := range got {
				got[i] ^= 0xFF
			}
			restored := instRestored(t, name, in, got)
			if restored.Checksum() != b.sum {
				t.Fatalf("recycled snapshot restores to checksum %x, want %x", restored.Checksum(), b.sum)
			}
		})
	}
}

// TestHPCGStaticPrefixStable is the chunk stability the delta tier
// relies on: consecutive HPCG snapshots are byte-identical up to the
// first per-step field, and a delta between them ships no more chunks
// than the per-step bytes cover.
func TestHPCGStaticPrefixStable(t *testing.T) {
	in := tinyInput(4)
	in.Local = 8
	bs := boundaries(t, "hpcg", in)
	dyn := layoutOf(stateOf(instRestored(t, "hpcg", in, bs[0].snap))).offset["Iter"]
	if dyn < len(bs[0].snap)/2 {
		t.Fatalf("static prefix is %d of %d bytes; the matrix should make it the larger half", dyn, len(bs[0].snap))
	}
	const chunk = 512
	for k := 1; k+1 < len(bs); k++ {
		a, b := bs[k].snap, bs[k+1].snap
		if len(a) != len(b) || !bytes.Equal(a[:dyn], b[:dyn]) {
			t.Fatalf("steps %d and %d differ inside the static prefix (%d bytes)", k, k+1, dyn)
		}
		if bytes.Equal(a[dyn:], b[dyn:]) {
			t.Fatalf("steps %d and %d: the per-step state did not change", k, k+1)
		}
		opts := ckptimg.Options{ChunkSize: chunk}
		parent, err := ckptimg.EncodeOpts(&ckptimg.Image{NRanks: 4, Step: k, AppState: a}, opts)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := ckptimg.IndexFull(parent, chunk)
		if err != nil {
			t.Fatal(err)
		}
		img := &ckptimg.Image{NRanks: 4, Step: k + 1, AppState: b}
		_, st, err := ckptimg.EncodeDelta(img, ix.Index, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if limit := (len(b)-dyn+chunk-1)/chunk + 1; st.Changed > limit || st.Changed == 0 {
			t.Fatalf("steps %d -> %d: delta ships %d of %d chunks, the per-step bytes cover %d", k, k+1, st.Changed, st.Chunks, limit)
		}
	}
}

// TestSendScratchIsNotState: the wire scratch the halo sends pack from
// is rebuilt after a restore and never reaches a snapshot — a restored
// run and an uninterrupted one stay bit-identical (the cross-run half
// is TestAppsCheckpointRestart); here, the scratch of a stepped
// instance does not change what it snapshots.
func TestSendScratchIsNotState(t *testing.T) {
	in := tinyInput(4)
	for _, name := range []string{"hpcg", "lammps", "sw4"} {
		bs := boundaries(t, name, in)
		inst := instRestored(t, name, in, bs[2].snap)
		switch v := inst.(type) {
		case *hpcg:
			v.pvBytes = make([]byte, 8*v.n())
		case *lammps:
			v.posBytes = make([]byte, 8*len(v.st.Pos))
		case *sw4:
			v.uBytes = make([]byte, 8*len(v.st.U))
		}
		if again, _ := inst.Snapshot(); !bytes.Equal(again, bs[2].snap) {
			t.Errorf("%s: send scratch leaked into the snapshot", name)
		}
	}
}

// FuzzRestore: whatever the bytes, Restore returns — an error, or a
// state that snapshots back to exactly those bytes.
func FuzzRestore(f *testing.F) {
	in := smallInput()
	for _, name := range snapNames() {
		f.Add(boundaries(f, name, in)[1].snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range snapNames() {
			inst := fresh(t, name, in)
			if err := inst.Restore(data); err != nil {
				var se *SnapshotError
				if !errors.As(err, &se) {
					t.Fatalf("%s: untyped error %v", name, err)
				}
				continue
			}
			again, err := inst.Snapshot()
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("%s: accepted %d bytes that do not snapshot back (%v)", name, len(data), err)
			}
			_ = inst.Checksum()
		}
	})
}
