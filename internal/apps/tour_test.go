package apps

import (
	"fmt"
	"testing"
	"time"

	"manasim/internal/cluster"
	mana "manasim/internal/core"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// tourImpls are the implementations the tour runs on, sources and
// targets alike.
var tourImpls = []string{"mpich", "openmpi", "craympi", "exampi"}

// capsOf reads an implementation's capability set off one lower half.
func capsOf(t *testing.T, impl string) mpi.CapSet {
	t.Helper()
	var caps mpi.CapSet
	cfg := cfgFor(t, impl)
	if _, err := cluster.Run(1, cfg.Factory, cfg.Host.Net, func(_ int, p mpi.Proc, _ *simtime.Clock) error {
		caps = p.Caps()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return caps
}

// TestTourRestartMatrix: the tour, checkpointed mid-run under MANA and
// restarted, ends with its source implementation's native checksums in
// every cell — the same implementation under the virtid design on all
// four and under the legacy design on the MPICH family, and, with
// uniform handles, every ordered pair of distinct implementations
// whose target supports the source's program. The three pairs into
// ExaMPI, whose subset lacks the full program, are ROADMAP item 20's
// refusal cells.
func TestTourRestartMatrix(t *testing.T) {
	const ranks, steps, cut = 4, 6, 3
	start := time.Now()
	native := map[string][]uint64{}
	caps := map[string]mpi.CapSet{}
	for _, impl := range tourImpls {
		st, err := mana.RunNative(cfgFor(t, impl), ranks, NewTour(steps))
		if err != nil {
			t.Fatalf("native %s: %v", impl, err)
		}
		native[impl], caps[impl] = st.Checksums, capsOf(t, impl)
	}
	type cell struct {
		src, dst string
		design   mana.Design
	}
	var cells []cell
	for _, impl := range tourImpls {
		cells = append(cells, cell{impl, impl, mana.DesignVirtID})
	}
	cells = append(cells, cell{"mpich", "mpich", mana.DesignLegacy}, cell{"craympi", "craympi", mana.DesignLegacy})
	for _, src := range tourImpls {
		for _, dst := range tourImpls {
			if src != dst && (!tourFull(caps[src]) || tourFull(caps[dst])) {
				cells = append(cells, cell{src, dst, mana.DesignVirtID})
			}
		}
	}
	if len(cells) != 15 {
		t.Fatalf("%d cells, want 6 same-implementation and 9 cross-implementation", len(cells))
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/%s_to_%s", c.design, c.src, c.dst)
		t.Run(name, func(t *testing.T) {
			cfg := cfgFor(t, c.src)
			cfg.Design, cfg.UniformHandles = c.design, c.src != c.dst
			if c.src == c.dst {
				plain, _, err := mana.Run(cfg, ranks, NewTour(steps), -1)
				if err != nil {
					t.Fatalf("%s: uninterrupted run: %v", name, err)
				}
				sameSums(t, name+": uninterrupted run", plain.Checksums, native[c.src])
			}
			dst := cfgFor(t, c.dst)
			dst.Design, dst.UniformHandles = c.design, cfg.UniformHandles
			rst, err := stopAndRestart(t, cfg, dst, ranks, NewTour(steps), cut)
			if err != nil {
				t.Fatalf("%s: restart: %v", name, err)
			}
			sameSums(t, name+": restart", rst.Checksums, native[c.src])
		})
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the matrix took %v, above 5 s", d)
	}
}

func sameSums(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("%s: rank %d checksum %#x, native %#x", what, r, got[r], want[r])
		}
	}
}
