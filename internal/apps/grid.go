// Package apps contains the five proxy applications of the paper's
// evaluation (Section 6, Table 1/2): CoMD, HPCG, LAMMPS, LULESH, and
// SW4. Each proxy reproduces the original code's rank decomposition,
// per-step MPI call mix (including the progress-polling traffic that
// dominates MANA's context-switch counts), message sizes, checkpoint
// footprint (Table 3), and a real — if reduced — numerical kernel, so
// that correctness of checkpoint/restart is verifiable bit-for-bit.
//
// The physics is deliberately miniaturized (the simulator charges the
// paper-calibrated compute time to the virtual clock), but every MPI
// interaction is real: real buffers, real tags, real sub-communicators,
// real derived datatypes. Beside them, unregistered, is the tour
// (tour.go), which calls the MPI surface the proxies leave unused.
//
// # Snapshots
//
// A snapshot is the rank's state as it lies in memory, written out
// field by field — the checkpoint image of the paper is the upper
// half's memory, not a re-encoding of it — so its size is the state's
// size and a byte that did not change in memory does not change in the
// snapshot. The five applications and the tour share one layout
// (snapshot.go), in little-endian 8-byte words:
//
//	word 0       application tag (4 ASCII bytes) | layout version << 32
//	then, in the fixed order of the application's fields method:
//	scalar       one word: int, int64, uint64 as is, float64 as its
//	             IEEE bits, bool as 0 or 1, mpi.Handle as uint64
//	Input        its ten members, one word each, declaration order
//	Decomp3D     its eight members, one word each
//	[]float64    a length word n, then n words of IEEE bits
//	[]int64      a length word n, then n words
//
// Every application lists what Setup fixes for the life of the job
// first — input, decomposition, handles, and HPCG's partition table and
// matrix — and the per-step scalars and vectors after it. The static
// prefix is byte-identical from one generation to the next, so the
// delta tier's fixed-size chunks over it are unchanged by construction
// and the changed fraction the cost model charges is the per-step
// state's share of memory. Snapshot computes the exact size, takes one
// buffer of it from app.SnapshotBuffer and fills every byte. The
// instance keeps no reference to that buffer: the checkpoint path
// encodes the snapshot and releases it (app.ReleaseSnapshot), so the
// next rank's or the next generation's snapshot fills the same array.
//
// Restore reads the bytes as input from a store that may hand back
// anything. It refuses, with a *SnapshotError naming the application
// and the field: a snapshot that ends inside a word; a wrong tag or
// version; a bool word other than 0 or 1; a length word that exceeds
// the bytes that remain (checked before the slice is allocated, so no
// allocation is larger than the input); a length word that differs from
// the one the snapshot's own Input and decomposition imply (the kernels
// index by those, so a short vector would panic in Step); and bytes
// left over after the last field. A refused Restore leaves the instance
// as it was. The send scratch some applications keep beside their state
// (the wire form of a vector a strided datatype packs from) is not
// state: it never reaches a snapshot and is rebuilt on the first step
// after a Restore.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"manasim/internal/mpi"
)

// Decomp3D is a 3-D Cartesian rank decomposition.
type Decomp3D struct {
	PX, PY, PZ int
	X, Y, Z    int // this rank's coordinates
	Rank, Size int
}

// factor3 splits p into three near-cubic factors (largest first is not
// required; determinism is).
func factor3(p int) (int, int, int) {
	best := [3]int{1, 1, p}
	bestScore := p * p
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b
			score := (c - a) * (c - a)
			if score < bestScore {
				bestScore = score
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}

// NewDecomp3D builds the decomposition for a rank in a job of size p.
func NewDecomp3D(rank, p int) Decomp3D {
	px, py, pz := factor3(p)
	return Decomp3D{
		PX: px, PY: py, PZ: pz,
		X:    rank % px,
		Y:    (rank / px) % py,
		Z:    rank / (px * py),
		Rank: rank, Size: p,
	}
}

// RankAt returns the rank at grid coordinates, or mpi.ProcNull outside
// the (non-periodic) grid.
func (d Decomp3D) RankAt(x, y, z int) int {
	if x < 0 || x >= d.PX || y < 0 || y >= d.PY || z < 0 || z >= d.PZ {
		return mpi.ProcNull
	}
	return x + d.PX*(y+d.PY*z)
}

// Neighbors returns the six face neighbors in -x,+x,-y,+y,-z,+z order;
// faces on the domain boundary report mpi.ProcNull.
func (d Decomp3D) Neighbors() [6]int {
	return [6]int{
		d.RankAt(d.X-1, d.Y, d.Z), d.RankAt(d.X+1, d.Y, d.Z),
		d.RankAt(d.X, d.Y-1, d.Z), d.RankAt(d.X, d.Y+1, d.Z),
		d.RankAt(d.X, d.Y, d.Z-1), d.RankAt(d.X, d.Y, d.Z+1),
	}
}

// NeighborsPeriodic returns the six face neighbors with periodic
// wrap-around (torus), never ProcNull.
func (d Decomp3D) NeighborsPeriodic() [6]int {
	wrap := func(v, n int) int { return (v%n + n) % n }
	return [6]int{
		d.RankAt(wrap(d.X-1, d.PX), d.Y, d.Z),
		d.RankAt(wrap(d.X+1, d.PX), d.Y, d.Z),
		d.RankAt(d.X, wrap(d.Y-1, d.PY), d.Z),
		d.RankAt(d.X, wrap(d.Y+1, d.PY), d.Z),
		d.RankAt(d.X, d.Y, wrap(d.Z-1, d.PZ)),
		d.RankAt(d.X, d.Y, wrap(d.Z+1, d.PZ)),
	}
}

// String renders the decomposition.
func (d Decomp3D) String() string {
	return fmt.Sprintf("%dx%dx%d@(%d,%d,%d)", d.PX, d.PY, d.PZ, d.X, d.Y, d.Z)
}

// progressPoll models the library-level progress polling that dominates
// per-call traffic into the lower half (Section 6.3: the context-switch
// rate; Section 6.1: "MANA internally calls MPI_Test while wrapping
// non-blocking communication"). Each poll is one MPI_Iprobe — free on
// the network, but two fs-register crossings under MANA. A proc with
// Iprobes makes one real probe and charges the rest in closed form, as
// the loop would: the rank holds the token, probes consume nothing, and
// MANA's drain buffer stays fixed, so every poll finds the first's.
func progressPoll(p mpi.Proc, comm mpi.Handle, n int) error {
	if b, ok := p.(interface {
		Iprobes(n, src, tag int, comm mpi.Handle) error
	}); ok {
		return b.Iprobes(n, mpi.AnySource, mpi.AnyTag, comm)
	}
	for i := 0; i < n; i++ {
		if _, _, err := p.Iprobe(mpi.AnySource, mpi.AnyTag, comm); err != nil {
			return err
		}
	}
	return nil
}

// wireBytes fills *buf (see scratch) with the wire form of v[first],
// v[first+stride], ... and returns it, 8*len(v) bytes: what a send
// through a datatype reading only those elements packs from. The engine
// copies at send time, so one buffer per instance serves every step.
func wireBytes(buf *[]byte, v []float64, first, stride int) []byte {
	b := scratch(buf, 8*len(v))
	for i := first; i < len(v); i += stride {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v[i]))
	}
	return b
}

// scratch returns *buf resliced to n elements, reallocated only when it
// is too small: the per-instance buffer a receive lands in or a send is
// staged from, reused every step. It is not instance state, and its
// contents before the caller writes them are unspecified.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// xorshift is a tiny deterministic PRNG for initial conditions (the
// stdlib math/rand would also do, but a hand-rolled generator keeps
// snapshots trivially reproducible across Go versions).
type xorshift uint64

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return xorshift(seed)
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// float returns a uniform value in [0,1).
func (x *xorshift) float() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}
