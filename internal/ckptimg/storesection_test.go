package ckptimg_test

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"manasim/internal/apps"
	"manasim/internal/ckptimg"
	mana "manasim/internal/core"
	"manasim/internal/impls"
	"manasim/internal/simtime"
)

// checkpointImages runs an application under MANA to a checkpoint at
// step 2 and returns the job's images, or the error that stopped it.
func checkpointImages(tb testing.TB, impl string, design mana.Design, app string, ranks int) ([][]byte, error) {
	tb.Helper()
	spec, err := apps.ByName(app)
	if err != nil {
		tb.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks, in.SimSteps, in.Local, in.PollsPerStep = ranks, 4, 8, 2
	f, err := impls.Get(impl)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := mana.Config{ImplName: impl, Factory: f, Host: simtime.Discovery(), Design: design}
	_, images, err := mana.Run(cfg, ranks, spec.New(in), 2)
	return images, err
}

// FuzzStoreSection: whatever the bytes, decoding a vid store section
// returns — a snapshot, or an error wrapping ErrCorrupt — allocating at
// most a constant multiple of its input (element counts are bounded by
// the smallest encoding of an element, never by a claimed length), and
// a decoded snapshot re-encodes to one that decodes equal. The corpus
// is seeded with the store sections of real images: CoMD checkpointed
// under every simulated MPI implementation and both vid designs (the
// legacy design serves only the MPICH family).
func FuzzStoreSection(f *testing.F) {
	for _, impl := range []string{"mpich", "craympi", "openmpi", "exampi"} {
		for _, design := range []mana.Design{mana.DesignVirtID, mana.DesignLegacy} {
			images, err := checkpointImages(f, impl, design, "comd", 4)
			if err != nil {
				if design == mana.DesignVirtID {
					f.Fatalf("%s/%s: %v", impl, design, err)
				}
				continue
			}
			for _, data := range images {
				payload := ckptimg.StoreSection(data)
				if payload == nil {
					f.Fatalf("%s/%s: image without a vid store section", impl, design)
				}
				f.Add(payload)
			}
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if got, limit := decodeAllocBytes(func() { _, _ = ckptimg.DecodeStoreSection(payload) }), 16*uint64(len(payload))+1024; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(payload), got, limit)
		}
		st, err := ckptimg.DecodeStoreSection(payload)
		if err != nil {
			if !errors.Is(err, ckptimg.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		again, err := ckptimg.DecodeStoreSection(ckptimg.EncodeStoreSection(&st))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("decode -> encode -> decode is not a fixpoint:\n%+v\n%+v", st, again)
		}
	})
}

// FuzzCounters: whatever the bytes, the rank and the job size, decoding a
// counters section returns a list the runtime could have produced —
// peers strictly ascending in [0, nranks), no entry without a message —
// or an error wrapping ErrCorrupt, allocating at most a constant
// multiple of its input; a decoded list re-encodes to one that decodes
// equal. The corpus is seeded with the counters sections of real
// images: CoMD and LAMMPS checkpointed under every simulated MPI
// implementation that runs them.
func FuzzCounters(f *testing.F) {
	for _, app := range []string{"comd", "lammps"} {
		for _, impl := range []string{"mpich", "craympi", "openmpi", "exampi"} {
			images, err := checkpointImages(f, impl, mana.DesignVirtID, app, 4)
			if err != nil {
				if impl == "exampi" && app == "lammps" {
					continue // ExaMPI lacks an operation LAMMPS needs
				}
				f.Fatalf("%s/%s: %v", app, impl, err)
			}
			for r, data := range images {
				payload := ckptimg.CountersSection(data)
				if payload == nil {
					f.Fatalf("%s/%s: image without a counters section", app, impl)
				}
				f.Add(uint16(r), uint16(4), payload)
			}
		}
	}
	f.Add(uint16(0), uint16(0), []byte{0})
	f.Fuzz(func(t *testing.T, rank, nranks uint16, payload []byte) {
		decode := func() (ckptimg.Counters, error) {
			return ckptimg.DecodeCountersSection(payload, int(rank), int(nranks))
		}
		if got, limit := decodeAllocBytes(func() { _, _ = decode() }), 16*uint64(len(payload))+1024; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(payload), got, limit)
		}
		c, err := decode()
		if err != nil {
			if !errors.Is(err, ckptimg.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		prev := -1
		for _, e := range c {
			if e.Peer <= prev || e.Peer >= int(nranks) || e.Sent+e.Recv == 0 {
				t.Fatalf("decoded an impossible list for %d ranks: %v", nranks, c)
			}
			prev = e.Peer
		}
		again, err := ckptimg.DecodeCountersSection(ckptimg.EncodeCountersSection(int(rank), c), int(rank), int(nranks))
		if err != nil {
			t.Fatalf("re-encoded list does not decode: %v", err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("decode -> encode -> decode is not a fixpoint:\n%v\n%v", c, again)
		}
	})
}

// decodeAllocBytes reports the heap bytes one call of decode
// allocates: the least of three calls, since the fuzzing engine's own
// goroutines allocate beside the measured one.
func decodeAllocBytes(decode func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		decode()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestImageMetadataAllocations: validating an image's metadata costs a
// small fixed number of heap objects. The store runs IndexFull or
// IndexDelta on every image of every commit, decoding every common
// section — identity, the vid store with the indexed halo type's
// hundreds of descriptor ints, drained messages, counters — of a real
// 16-rank HPCG image here; a reflection
// codec (gob cost ~385 objects an image for the vid store alone) cannot
// come back without breaking the bound.
func TestImageMetadataAllocations(t *testing.T) {
	const ranks, chunk = 16, 4 << 10
	images, err := checkpointImages(t, "mpich", mana.DesignVirtID, "hpcg", ranks)
	if err != nil {
		t.Fatal(err)
	}
	full := images[ranks/2]
	img, err := ckptimg.Decode(full)
	if err != nil {
		t.Fatal(err)
	}
	ints := 0
	for _, it := range img.Store.Items {
		ints += len(it.Desc.Ints)
	}
	if ints < 100 {
		t.Fatalf("the image's vid store holds %d descriptor ints; want HPCG's indexed halo type", ints)
	}
	parent := ckptimg.IndexAppState(img.AppState, chunk)
	img.AppState[len(img.AppState)/2] ^= 1
	delta, _, err := ckptimg.EncodeDelta(img, parent, 0, ckptimg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ckptimg.IndexFull(full, chunk); err != nil {
			t.Fatal(err)
		}
		if _, err := ckptimg.IndexDelta(delta); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("IndexFull + IndexDelta: %.0f objects (%d vid items, %d descriptor ints an image)", allocs, len(img.Store.Items), ints)
	if allocs > 40 {
		t.Errorf("IndexFull + IndexDelta allocated %.0f objects, want <= 40", allocs)
	}
}
