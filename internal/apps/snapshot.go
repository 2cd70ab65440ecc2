package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"manasim/internal/app"
	"manasim/internal/mpi"
)

// This file is the snapshot codec the five proxies and the tour share;
// the layout and what Restore refuses are specified in the package
// comment (grid.go, "Snapshots").

// snapVersion is the layout version in the upper half of word 0.
const snapVersion = 1

// Application tags, the lower half of word 0: four ASCII bytes in
// file order.
const (
	tagHPCG   uint32 = 'H' | 'P'<<8 | 'C'<<16 | 'G'<<24
	tagLAMMPS uint32 = 'L' | 'M'<<8 | 'P'<<16 | 'S'<<24
	tagCoMD   uint32 = 'C' | 'O'<<8 | 'M'<<16 | 'D'<<24
	tagLULESH uint32 = 'L' | 'L'<<8 | 'S'<<16 | 'H'<<24
	tagSW4    uint32 = 'S' | 'W'<<8 | '4'<<16 | ' '<<24
)

// SnapshotError reports a snapshot Restore refused.
type SnapshotError struct {
	// App is the application whose Restore was called.
	App string
	// Field is the field being read when the snapshot went wrong.
	Field string
	// Reason says what was wrong with it.
	Reason string
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("apps: %s snapshot: field %s: %s", e.App, e.Field, e.Reason)
}

// snapMode is what a pass over an application's fields does.
type snapMode int

const (
	snapSize  snapMode = iota // add up the encoded size (the zero codec)
	snapWrite                 // fill buf
	snapRead                  // decode buf
)

// snapCodec carries one pass over a state's fields. The same fields
// method drives all three modes, so the size computed, the bytes
// written and the bytes read cannot disagree about the field order.
type snapCodec struct {
	mode snapMode
	app  string // application name for errors
	buf  []byte
	off  int            // bytes sized, written or read so far
	err  *SnapshotError // first read failure; later reads are no-ops
}

// header is word 0: the application tag below the layout version.
func (c *snapCodec) header(tag uint32) {
	c.word("tag", uint64(tag)|snapVersion<<32, func(got uint64) {
		if uint32(got) != tag {
			c.fail("tag", fmt.Sprintf("application tag %q, want %q",
				binary.LittleEndian.AppendUint32(nil, uint32(got)), binary.LittleEndian.AppendUint32(nil, tag)))
		} else if got>>32 != snapVersion {
			c.fail("tag", fmt.Sprintf("layout version %d, want %d", got>>32, snapVersion))
		}
	})
}

func (c *snapCodec) put(w uint64) {
	binary.LittleEndian.PutUint64(c.buf[c.off:], w)
	c.off += 8
}

// get reads the next word, failing the pass when fewer than eight bytes
// remain.
func (c *snapCodec) get(field string) (uint64, bool) {
	if c.err != nil {
		return 0, false
	}
	if len(c.buf)-c.off < 8 {
		c.fail(field, fmt.Sprintf("snapshot ends at byte %d, inside the field", len(c.buf)))
		return 0, false
	}
	w := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return w, true
}

func (c *snapCodec) fail(field, reason string) {
	if c.err == nil {
		c.err = &SnapshotError{App: c.app, Field: field, Reason: reason}
	}
}

// word is the scalar primitive: enc yields the word to write, dec takes
// the word read.
func (c *snapCodec) word(field string, enc uint64, dec func(uint64)) {
	switch c.mode {
	case snapSize:
		c.off += 8
	case snapWrite:
		c.put(enc)
	case snapRead:
		if w, ok := c.get(field); ok {
			dec(w)
		}
	}
}

func (c *snapCodec) int(field string, v *int) {
	c.word(field, uint64(*v), func(w uint64) { *v = int(w) })
}

func (c *snapCodec) i64(field string, v *int64) {
	c.word(field, uint64(*v), func(w uint64) { *v = int64(w) })
}

func (c *snapCodec) u64(field string, v *uint64) {
	c.word(field, *v, func(w uint64) { *v = w })
}

func (c *snapCodec) f64(field string, v *float64) {
	c.word(field, math.Float64bits(*v), func(w uint64) { *v = math.Float64frombits(w) })
}

func (c *snapCodec) handle(field string, v *mpi.Handle) {
	c.word(field, uint64(*v), func(w uint64) { *v = mpi.Handle(w) })
}

func (c *snapCodec) bool(field string, v *bool) {
	var enc uint64
	if *v {
		enc = 1
	}
	c.word(field, enc, func(w uint64) {
		if w > 1 {
			c.fail(field, fmt.Sprintf("bool word %#x", w))
			return
		}
		*v = w == 1
	})
}

// input is the Input every state leads with.
func (c *snapCodec) input(in *Input) {
	c.int("In.Ranks", &in.Ranks)
	c.int("In.Steps", &in.Steps)
	c.int("In.SimSteps", &in.SimSteps)
	c.i64("In.StepCompute", (*int64)(&in.StepCompute))
	c.f64("In.ComputeFactor", &in.ComputeFactor)
	c.int("In.PollsPerStep", &in.PollsPerStep)
	c.f64("In.PollFactor", &in.PollFactor)
	c.int("In.Local", &in.Local)
	c.int("In.FootprintMB", &in.FootprintMB)
	c.u64("In.Seed", &in.Seed)
}

func (c *snapCodec) decomp(d *Decomp3D) {
	c.int("D.PX", &d.PX)
	c.int("D.PY", &d.PY)
	c.int("D.PZ", &d.PZ)
	c.int("D.X", &d.X)
	c.int("D.Y", &d.Y)
	c.int("D.Z", &d.Z)
	c.int("D.Rank", &d.Rank)
	c.int("D.Size", &d.Size)
}

// snapSlice is a slice field of want elements: a length word, then the
// elements through put or get. On a read the length word is checked
// against the bytes that remain before the slice is allocated, and
// against want — the count the snapshot's own input implies.
func snapSlice[T float64 | int64](c *snapCodec, field string, v *[]T, want int, put func([]byte, []T), get func([]byte, []T)) {
	n := len(*v)
	switch c.mode {
	case snapSize:
		c.off += 8 + 8*n
		return
	case snapWrite:
		c.put(uint64(n))
	case snapRead:
		w, ok := c.get(field)
		if !ok {
			return
		}
		if rest := uint64(len(c.buf)-c.off) / 8; w > rest {
			c.fail(field, fmt.Sprintf("length word %d, but only %d words remain", w, rest))
			return
		}
		if w != uint64(want) {
			c.fail(field, fmt.Sprintf("length word %d, the snapshot's input implies %d", w, want))
			return
		}
		n = int(w)
		*v = make([]T, n)
	}
	b := c.buf[c.off : c.off+8*n]
	c.off += 8 * n
	if c.mode == snapWrite {
		put(b, *v)
	} else {
		get(b, *v)
	}
}

func (c *snapCodec) f64s(field string, v *[]float64, want int) {
	snapSlice(c, field, v, want, mpi.PutFloat64s, mpi.GetFloat64s)
}

func (c *snapCodec) i64s(field string, v *[]int64, want int) {
	snapSlice(c, field, v, want, mpi.PutInt64s, mpi.GetInt64s)
}

// snapState is a rank state the codec can walk.
type snapState interface {
	// fields visits the tag and then every field, in layout order.
	fields(c *snapCodec)
}

// allocate ends the sizing pass and starts the writing pass: one
// buffer of exactly the size the fields added up to, from
// app.SnapshotBuffer — a buffer a checkpoint released when there is one,
// so its old contents are arbitrary; the writing pass writes every byte
// of it. An application's Snapshot is fields, allocate, fields — called
// on the concrete state type, so the codec stays on the stack and the
// buffer is the only allocation, and none once the checkpoint path
// recycles buffers.
func (c *snapCodec) allocate() {
	*c = snapCodec{mode: snapWrite, buf: app.SnapshotBuffer(c.off)}
}

// decodeSnapshot reads data into st, which the caller adopts only on a
// nil return.
func decodeSnapshot(app string, data []byte, st snapState) error {
	c := snapCodec{mode: snapRead, app: app, buf: data}
	st.fields(&c)
	if c.err == nil && c.off != len(data) {
		c.fail("end", fmt.Sprintf("%d bytes after the last field", len(data)-c.off))
	}
	if c.err != nil {
		return c.err
	}
	return nil
}
