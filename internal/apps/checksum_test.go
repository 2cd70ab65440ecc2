package apps

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"manasim/internal/app"
)

// refChecksum is every application's Checksum as it was written with
// fmt.Fprintf into hash/fnv: the reference the allocation-free digest
// must reproduce bit for bit.
func refChecksum(inst app.Instance) uint64 {
	h := fnv.New64a()
	switch v := inst.(type) {
	case *comd:
		s := &v.st
		fmt.Fprintf(h, "comd:%d:%v:%.12e;", s.D.Rank, s.D, s.EPot)
		for i := 0; i < len(s.Pos); i += 7 {
			fmt.Fprintf(h, "%.10e,", s.Pos[i])
		}
		for i := 0; i < len(s.Vel); i += 11 {
			fmt.Fprintf(h, "%.10e,", s.Vel[i])
		}
	case *hpcg:
		s := &v.st
		fmt.Fprintf(h, "hpcg:%d:%d:%.14e;", s.D.Rank, s.Iter, s.RtR)
		for i := 0; i < len(s.X); i += 13 {
			fmt.Fprintf(h, "%.10e,", s.X[i])
		}
		for _, p := range s.Partition {
			fmt.Fprintf(h, "%d,", p)
		}
	case *lammps:
		s := &v.st
		fmt.Fprintf(h, "lammps:%d:%.12e:%d;", s.D.Rank, s.PE, s.Migrations)
		for i := 0; i < len(s.Pos); i += 17 {
			fmt.Fprintf(h, "%.10e,", s.Pos[i])
		}
	case *lulesh:
		s := &v.st
		fmt.Fprintf(h, "lulesh:%d:%d:%.14e;", s.D.Rank, s.Cycle, s.DtCourant)
		for i := 0; i < len(s.E); i += 5 {
			fmt.Fprintf(h, "%.10e,%.10e;", s.E[i], s.P[i])
		}
	case *sw4:
		s := &v.st
		fmt.Fprintf(h, "sw4:%d:%d:%.14e;", s.D.Rank, s.TStep, s.Energy)
		for i := 0; i < len(s.U); i += 3 {
			fmt.Fprintf(h, "%.10e,", s.U[i])
		}
	default:
		panic("unknown instance type")
	}
	return h.Sum64()
}

// specialFloats are the values whose text formatting has edge cases.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, // subnormal
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 9.99999999995e-5, 0.5e-10,
}

// randFloat draws a special value one time in eight and otherwise a
// random bit pattern, which spans every exponent (NaN payloads too).
func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return specialFloats[rng.Intn(len(specialFloats))]
	}
	return math.Float64frombits(rng.Uint64())
}

// seedState gives every numeric field of a state struct a seeded random
// value, with slices of n elements.
func seedState(st any, rng *rand.Rand, n int) {
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				set(v.Field(i))
			}
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				set(s.Index(i))
			}
			v.Set(s)
		case reflect.Bool:
			v.SetBool(rng.Intn(2) == 0)
		case reflect.Float64:
			v.SetFloat(randFloat(rng))
		case reflect.Uint64:
			v.SetUint(rng.Uint64())
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(rng.Uint64()) >> rng.Intn(64))
		}
	}
	set(reflect.ValueOf(st).Elem())
}

// TestDigestMatchesFmt: the digest's strconv formatting produces the
// bytes fmt's "%.10e", "%.12e", "%.14e" and "%d" produce, on special
// values and on random bit patterns of every exponent.
func TestDigestMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := append([]float64(nil), specialFloats...)
	for i := 0; i < 1<<18; i++ {
		floats = append(floats, randFloat(rng))
	}
	for _, v := range floats {
		// %.10e for sampled values, %.12e and %.14e for header lines.
		for _, prec := range []int{10, 12, 14} {
			d, want := newDigest(), newDigest()
			d.exp(v, prec, ',')
			want.write([]byte(fmt.Sprintf("%.*e,", prec, v)))
			if d.sum != want.sum {
				t.Fatalf("bits %#x: strconv prints %q, fmt %q", math.Float64bits(v),
					strconv.FormatFloat(v, 'e', prec, 64), fmt.Sprintf("%.*e", prec, v))
			}
		}
	}
	for _, v := range []int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64, rng.Int63(), -rng.Int63()} {
		d, want := newDigest(), newDigest()
		d.int(v, ',')
		want.write([]byte(fmt.Sprintf("%d,", v)))
		if d.sum != want.sum {
			t.Fatalf("%d: digest differs from fmt", v)
		}
	}
}

// TestChecksumMatchesFmtReference: every application's Checksum equals
// the fmt form it replaced, on seeded states full of special values, so
// no checksum any test or benchmark recorded has moved.
func TestChecksumMatchesFmtReference(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				inst := fresh(t, name, smallInput())
				rng := rand.New(rand.NewSource(seed))
				seedState(stateOf(inst), rng, 40+rng.Intn(400))
				if got, want := inst.Checksum(), refChecksum(inst); got != want {
					t.Fatalf("seed %d: Checksum %#x, fmt reference %#x", seed, got, want)
				}
			}
		})
	}
}

// TestChecksumAllocations: a Checksum costs no heap object, whatever
// the size of the state it digests and whatever its counters hold.
func TestChecksumAllocations(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{64, 1 << 16} {
				inst := fresh(t, name, smallInput())
				seedState(stateOf(inst), rand.New(rand.NewSource(int64(n))), n)
				allocs := testing.AllocsPerRun(20, func() { inst.Checksum() })
				if allocs != 0 {
					t.Errorf("%d-element state: Checksum allocates %.1f objects per call, want 0", n, allocs)
				}
			}
		})
	}
}
