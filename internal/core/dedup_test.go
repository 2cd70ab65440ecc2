package mana

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"manasim/internal/app"
	"manasim/internal/ckptstore"
	"manasim/internal/mpi"
)

// dedupApp is a ring-communicating application whose snapshot is
// dominated by a static region identical across ranks — the shape
// (hpcg's stencil matrix) the content-addressed store is built for —
// plus a small seeded per-rank tail that evolves every step.
type dedupApp struct {
	steps int
	seed  uint64

	rank, size int
	state      []byte
	acc        uint64
}

const dedupStaticBytes = 16 << 10
const dedupTailBytes = 1 << 10

func newDedupApp(steps int, seed uint64) app.Factory {
	return func() app.Instance { return &dedupApp{steps: steps, seed: seed} }
}

func (a *dedupApp) Setup(env *app.Env) error {
	a.rank, a.size = env.Rank, env.Size
	a.state = make([]byte, dedupStaticBytes+dedupTailBytes)
	// The static region depends on the seed only — identical on every
	// rank, like an assembled stencil matrix.
	rand.New(rand.NewSource(int64(a.seed))).Read(a.state[:dedupStaticBytes])
	rand.New(rand.NewSource(int64(a.seed) ^ int64(a.rank+1)<<32)).Read(a.state[dedupStaticBytes:])
	return nil
}

func (a *dedupApp) Steps() int { return a.steps }

func (a *dedupApp) Step(env *app.Env, step int) error {
	p := env.P
	env.Compute(1000)
	world, err := p.LookupConst(mpi.ConstCommWorld)
	if err != nil {
		return err
	}
	next, prev := (a.rank+1)%a.size, (a.rank-1+a.size)%a.size
	byteT, err := p.LookupConst(mpi.ConstByte)
	if err != nil {
		return err
	}
	out := []byte{byte(a.acc), byte(step)}
	if a.rank%2 == 0 {
		if err := p.Send(out, len(out), byteT, next, 3, world); err != nil {
			return err
		}
		in := make([]byte, 2)
		if _, err := p.Recv(in, len(in), byteT, prev, 3, world); err != nil {
			return err
		}
		a.acc = a.acc*31 + uint64(in[0]) + uint64(in[1])
	} else {
		in := make([]byte, 2)
		if _, err := p.Recv(in, len(in), byteT, prev, 3, world); err != nil {
			return err
		}
		if err := p.Send(out, len(out), byteT, next, 3, world); err != nil {
			return err
		}
		a.acc = a.acc*31 + uint64(in[0]) + uint64(in[1])
	}
	// Only the tail mutates: the static region stays shared across
	// ranks and generations.
	tail := a.state[dedupStaticBytes:]
	tail[(step*7+a.rank)%len(tail)] ^= byte(a.acc)
	return nil
}

func (a *dedupApp) Finalize(env *app.Env) error { return nil }

func (a *dedupApp) Checksum() uint64 {
	h := fnv.New64a()
	h.Write(a.state)
	fmt.Fprintf(h, "acc=%d", a.acc)
	return h.Sum64()
}

func (a *dedupApp) Snapshot() ([]byte, error) {
	out := make([]byte, 8+len(a.state))
	for i := 0; i < 8; i++ {
		out[i] = byte(a.acc >> (8 * i))
	}
	copy(out[8:], a.state)
	return out, nil
}

func (a *dedupApp) Restore(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("dedupApp snapshot too short: %d bytes", len(data))
	}
	a.acc = 0
	for i := 0; i < 8; i++ {
		a.acc |= uint64(data[i]) << (8 * i)
	}
	a.state = append([]byte(nil), data[8:]...)
	return nil
}

func (a *dedupApp) FootprintBytes() int64 { return int64(len(a.state)) }

// TestDedupRestartByteIdenticalAllImpls is the dedup acceptance
// property: on every simulated MPI implementation, the run →
// checkpoint → restart → checkpoint → restart chain over a dedup store
// produces byte-identical checksums and application state to the
// non-dedup store's — the content-addressed layer changes what the
// backend holds, never what restarts.
func TestDedupRestartByteIdenticalAllImpls(t *testing.T) {
	const ranks, steps, s1, s2 = 4, 10, 3, 7
	for _, impl := range []string{"mpich", "craympi", "openmpi", "exampi"} {
		t.Run(impl, func(t *testing.T) {
			cfg := implFactory(t, impl)
			plain, _, err := Run(cfg, ranks, newRingApp(steps), -1)
			if err != nil {
				t.Fatal(err)
			}
			opts := ckptstore.Options{Delta: true, ChunkBytes: 64, ChainCap: 8}
			plainStore := mustOpenStore(ranks, opts)
			opts.Dedup = true
			dedupStore := mustOpenStore(ranks, opts)

			chainCheckpoints(t, cfg, plainStore, newRingApp(steps), ranks, s1, s2)
			rst := chainCheckpoints(t, cfg, dedupStore, newRingApp(steps), ranks, s1, s2)
			sameChecksums(t, plain.Checksums, rst.Checksums, impl+" dedup restart")

			wantImgs, _, err := plainStore.MaterializeStreamHead()
			if err != nil {
				t.Fatal(err)
			}
			gotImgs, _, err := dedupStore.MaterializeStreamHead()
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				if !bytes.Equal(wantImgs[r].AppState, gotImgs[r].AppState) {
					t.Fatalf("rank %d: dedup-store state differs from the plain store's", r)
				}
			}
			for _, g := range dedupStore.Generations() {
				if g.UniqueBytes <= 0 || g.UniqueBytes > g.Bytes+int64(ranks*2048) {
					t.Fatalf("generation %d: implausible UniqueBytes %d for Bytes %d", g.Seq, g.UniqueBytes, g.Bytes)
				}
			}
		})
	}
}

// TestDedupCrossRankSharingUnderMana drives the shared-static-region
// app through a full checkpoint and pins the headline: the dedup store
// holds far fewer bytes than the logical image volume, and the store's
// commit attribution reflects it.
func TestDedupCrossRankSharingUnderMana(t *testing.T) {
	const ranks, steps = 8, 6
	cfg := implFactory(t, "mpich")
	st := mustOpenStore(ranks, ckptstore.Options{Dedup: true, Delta: true, ChunkBytes: 4 << 10})
	cfg.Store = st
	cfg.ExitAtCheckpoint = true
	if _, _, err := Run(cfg, ranks, newDedupApp(steps, 42), 3); err != nil {
		t.Fatal(err)
	}
	ds := st.DedupStats()
	if ds.SharedRefs == 0 {
		t.Fatal("no cross-rank sharing on identical static regions")
	}
	if ds.StoredBytes >= ds.LogicalBytes*7/10 {
		t.Fatalf("dedup stored %d of %d logical bytes — less than the 30%% shrink the static region guarantees",
			ds.StoredBytes, ds.LogicalBytes)
	}
	head, ok := st.Head()
	if !ok || head.UniqueBytes >= head.Bytes*7/10 {
		t.Fatalf("head generation unique %d of %d bytes", head.UniqueBytes, head.Bytes)
	}
	// Rank 0 pays for the shared region, later ranks only for their
	// tails: attribution is lowest-rank-pays and sums to UniqueBytes.
	var sum int64
	for r := 0; r < ranks; r++ {
		sum += st.CommitCharge(r)
	}
	if sum != head.UniqueBytes {
		t.Fatalf("per-rank charges sum to %d, generation stored %d", sum, head.UniqueBytes)
	}
	if st.CommitCharge(0) <= st.CommitCharge(1) {
		t.Fatalf("rank 0 charged %d, rank 1 charged %d — shared bytes not attributed to the lowest rank",
			st.CommitCharge(0), st.CommitCharge(1))
	}
}

// TestDedupDeterminismBattery is the multi-seed determinism sweep:
// for every implementation, seed, and dedup mode, two identical runs
// under a fixed translation cost produce byte-identical virtual times
// and checksums. Dedup must not perturb scheduling-sensitive state —
// its commit bookkeeping happens under the store lock and its charges
// land at a barrier every rank has reached.
func TestDedupDeterminismBattery(t *testing.T) {
	const ranks, steps, ckptAt = 4, 8, 4
	seeds := []uint64{1, 7, 99}
	for _, impl := range []string{"mpich", "craympi", "openmpi", "exampi"} {
		for _, dedup := range []bool{false, true} {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/dedup=%v/seed=%d", impl, dedup, seed)
				t.Run(name, func(t *testing.T) {
					run := func() Stats {
						cfg := implFactory(t, impl)
						cfg.StoreOptions = ckptstore.Options{Dedup: dedup, Delta: true}
						st, _, err := Run(cfg, ranks, newDedupApp(steps, seed), ckptAt)
						if err != nil {
							t.Fatal(err)
						}
						return st
					}
					a, b := run(), run()
					sameChecksums(t, a.Checksums, b.Checksums, name)
					if a.VT != b.VT {
						t.Fatalf("%s: VT %v != %v across identical runs", name, a.VT, b.VT)
					}
					for r := range a.PerRankVT {
						if a.PerRankVT[r] != b.PerRankVT[r] {
							t.Fatalf("%s: rank %d VT %v != %v", name, r, a.PerRankVT[r], b.PerRankVT[r])
						}
					}
					if a.CtlMsgs != b.CtlMsgs || a.Crossings != b.Crossings || a.CkptTaken != b.CkptTaken {
						t.Fatalf("%s: counters differ across identical runs: %+v vs %+v", name, a, b)
					}
				})
			}
		}
	}
}

// TestDedupChargeWithinWorkingSet: the working-set surcharge of a dedup
// commit never exceeds the working set beyond the image, however many
// unique bytes the rank's recipe adds. So the charge stays within
// totalBytes whenever the rank stored at most its image, and beyond it
// by no more than the bytes it stored past the image. Scaling by unique
// bytes uncapped charged a rank whose recipe made it store more than
// its image for more than its whole working set.
func TestDedupChargeWithinWorkingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		image := 1 + rng.Int63n(1<<20)
		total := image + rng.Int63n(1<<24)
		unique := rng.Int63n(2 * image)
		charged := dedupCharge(unique, image, total)
		if limit := total + max(unique-image, 0); charged > limit || charged < unique {
			t.Fatalf("unique %d of a %d-byte image in a %d-byte working set: charged %d, want in [%d, %d]", unique, image, total, charged, unique, limit)
		}
		if unique <= image && charged > total {
			t.Fatalf("unique %d of a %d-byte image: charged %d above the %d-byte working set", unique, image, charged, total)
		}
	}
	// Unique bytes three times the image: the uncapped scale charged three
	// times the surcharge.
	if got := dedupCharge(300, 100, 100+100<<20); got != 300+100<<20 {
		t.Fatalf("charged %d, want %d", got, 300+100<<20)
	}
	if got := dedupCharge(50, 0, 1000); got != 50 {
		t.Fatalf("empty image charged %d, want its unique bytes 50", got)
	}
}
