package ckptimg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// This file is the compact binary codec for every section of the v3
// format but the application state: identity, delta linkage, drained
// messages, request results and counters are flat structs of ints,
// strings and byte slices, so they travel as fixed little-endian fields;
// the vid store snapshot is a flat list of items, most of whose fields
// are small, so it travels as varints. gob would cost ~20 heap
// allocations per section per image (~385 for the vid store, whose
// decoder compiles the snapshot's types afresh every time) on the
// parallel checkpoint path, where every rank encodes them on every
// generation and the store decodes them again to validate each commit.
//
// Early v3 encoders shipped these sections as gob under the tags META,
// DMET, DRNS, REQS, CNTR and STOR; the binary codec took new tags.
// Decoders accept only the binary tags: an image carrying a gob-coded
// section is refused as ErrCorrupt (an unknown tag). So is the dense
// counters section of builds before the sparse one (CTR2: two n-entry
// vectors, 16 bytes per rank of the job in every image).

// Binary section tags.
const (
	secMeta2     uint32 = 0x4D455432 // "MET2": identity
	secDrained2  uint32 = 0x44524E32 // "DRN2": drained messages
	secReqs2     uint32 = 0x52515332 // "RQS2": request results
	secCounters3 uint32 = 0x43545233 // "CTR3": p2p counters, sparse
	secDeltaMet2 uint32 = 0x444D5432 // "DMT2": delta linkage
	secStore2    uint32 = 0x53545232 // "STR2": vid store snapshot
)

// ---------------------------------------------------------------------
// append-side primitives (write into the image being encoded)

func appendU32(b *bytes.Buffer, v uint32) {
	var s [4]byte
	binary.LittleEndian.PutUint32(s[:], v)
	b.Write(s[:])
}

func appendI64(b *bytes.Buffer, v int64) {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], uint64(v))
	b.Write(s[:])
}

func appendU64(b *bytes.Buffer, v uint64) {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], v)
	b.Write(s[:])
}

func appendUvarint(b *bytes.Buffer, v uint64) {
	var s [binary.MaxVarintLen64]byte
	b.Write(s[:binary.PutUvarint(s[:], v)])
}

// appendVarint writes v zigzag-coded, as binary.PutVarint does.
func appendVarint(b *bytes.Buffer, v int64) { appendUvarint(b, uint64(v<<1)^uint64(v>>63)) }

func appendBool(b *bytes.Buffer, v bool) {
	if v {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

// appendBytes writes a u32 length prefix followed by the bytes.
func appendBytes(b *bytes.Buffer, p []byte) {
	appendU32(b, uint32(len(p)))
	b.Write(p)
}

func appendString(b *bytes.Buffer, s string) {
	appendU32(b, uint32(len(s)))
	b.WriteString(s)
}

// ---------------------------------------------------------------------
// read-side primitives: a bounds-checked cursor with a sticky error

type fieldReader struct {
	data []byte
	off  int
	bad  bool
}

func (r *fieldReader) take(n int) []byte {
	if r.bad || n < 0 || len(r.data)-r.off < n {
		r.bad = true
		return nil
	}
	p := r.data[r.off : r.off+n]
	r.off += n
	return p
}

func (r *fieldReader) u32() uint32 {
	p := r.take(4)
	if r.bad {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *fieldReader) i64() int64 {
	p := r.take(8)
	if r.bad {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

func (r *fieldReader) u64() uint64 {
	p := r.take(8)
	if r.bad {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *fieldReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// uvarint32 reads a uvarint that must fit in 32 bits.
func (r *fieldReader) uvarint32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.bad = true
		return 0
	}
	return uint32(v)
}

func (r *fieldReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a uvarint element count and refuses one the remaining
// bytes cannot hold at minSize bytes per element, so a damaged count
// never sizes an allocation beyond the input.
func (r *fieldReader) count(minSize int) int {
	v := r.uvarint()
	if r.bad || v > uint64((len(r.data)-r.off)/minSize) {
		r.bad = true
		return 0
	}
	return int(v)
}

func (r *fieldReader) bool() bool {
	p := r.take(1)
	return !r.bad && p[0] != 0
}

// bytes reads a length-prefixed field as a fresh copy (decoded images
// own their memory; only app-state chunks are allowed to alias input).
func (r *fieldReader) bytes() []byte {
	n := int(r.u32())
	p := r.take(n)
	if r.bad || n == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

func (r *fieldReader) string() string {
	n := int(r.u32())
	p := r.take(n)
	if r.bad {
		return ""
	}
	return string(p)
}

// done reports a clean full parse.
func (r *fieldReader) done() bool { return !r.bad && r.off == len(r.data) }

// badSection is the shared malformed-binary-section error.
func badSection(tag uint32) error {
	return fmt.Errorf("ckptimg: malformed %s section (%w)", tagName(tag), ErrCorrupt)
}

// ---------------------------------------------------------------------
// per-section codecs

// writeMetaSection writes the binary META section shared by full and
// delta images.
func writeMetaSection(b *bytes.Buffer, img *Image) {
	off := beginSection(b)
	appendI64(b, int64(img.Rank))
	appendI64(b, int64(img.NRanks))
	appendI64(b, int64(img.Step))
	appendString(b, img.Impl)
	appendString(b, img.Design)
	appendBool(b, img.UniformHandles)
	appendI64(b, img.ModeledBytes)
	endSection(b, off, secMeta2)
}

func decodeMeta2(img *Image, payload []byte) error {
	r := &fieldReader{data: payload}
	img.Rank = int(r.i64())
	img.NRanks = int(r.i64())
	img.Step = int(r.i64())
	img.Impl = r.string()
	img.Design = r.string()
	img.UniformHandles = r.bool()
	img.ModeledBytes = r.i64()
	if !r.done() {
		return badSection(secMeta2)
	}
	return nil
}

func writeDrainedSection(b *bytes.Buffer, msgs []DrainedMsg) {
	off := beginSection(b)
	appendU32(b, uint32(len(msgs)))
	for _, m := range msgs {
		appendU32(b, m.GGID)
		appendI64(b, int64(m.SrcCommRank))
		appendI64(b, int64(m.SrcWorld))
		appendI64(b, int64(m.Tag))
		appendBytes(b, m.Payload)
	}
	endSection(b, off, secDrained2)
}

func decodeDrained2(img *Image, payload []byte) error {
	r := &fieldReader{data: payload}
	n := int(r.u32())
	if r.bad || n < 0 || n > len(payload) {
		return badSection(secDrained2)
	}
	var msgs []DrainedMsg
	if n > 0 {
		msgs = make([]DrainedMsg, n)
	}
	for i := range msgs {
		msgs[i].GGID = r.u32()
		msgs[i].SrcCommRank = int(r.i64())
		msgs[i].SrcWorld = int(r.i64())
		msgs[i].Tag = int(r.i64())
		msgs[i].Payload = r.bytes()
	}
	if !r.done() {
		return badSection(secDrained2)
	}
	img.Drained = msgs
	return nil
}

func writeReqsSection(b *bytes.Buffer, reqs []ReqResult) {
	off := beginSection(b)
	appendU32(b, uint32(len(reqs)))
	for _, rr := range reqs {
		appendU64(b, uint64(rr.Virt))
		appendI64(b, int64(rr.St.Source))
		appendI64(b, int64(rr.St.Tag))
		appendI64(b, int64(rr.St.Bytes))
	}
	endSection(b, off, secReqs2)
}

func decodeReqs2(img *Image, payload []byte) error {
	r := &fieldReader{data: payload}
	n := int(r.u32())
	if r.bad || n < 0 || n > len(payload) {
		return badSection(secReqs2)
	}
	var reqs []ReqResult
	if n > 0 {
		reqs = make([]ReqResult, n)
	}
	for i := range reqs {
		reqs[i].Virt = mpi.Handle(r.u64())
		reqs[i].St.Source = int(r.i64())
		reqs[i].St.Tag = int(r.i64())
		reqs[i].St.Bytes = int(r.i64())
	}
	if !r.done() {
		return badSection(secReqs2)
	}
	img.ReqResults = reqs
	return nil
}

// writeDeltaMetaSection writes the binary DMET section of a delta
// image.
func writeDeltaMetaSection(b *bytes.Buffer, dm *deltaMeta) {
	off := beginSection(b)
	appendI64(b, int64(dm.ParentGen))
	appendI64(b, int64(dm.ParentLen))
	appendI64(b, int64(dm.NewLen))
	appendI64(b, int64(dm.ChunkBytes))
	appendI64(b, int64(dm.Chunks))
	endSection(b, off, secDeltaMet2)
}

// decode decodes the DMT2 section into dm and validates its
// self-consistency.
func (dm *deltaMeta) decode(payload []byte) error {
	r := &fieldReader{data: payload}
	*dm = deltaMeta{
		ParentGen:  int(r.i64()),
		ParentLen:  int(r.i64()),
		NewLen:     int(r.i64()),
		ChunkBytes: int(r.i64()),
		Chunks:     int(r.i64()),
	}
	if !r.done() {
		return badSection(secDeltaMet2)
	}
	if dm.ChunkBytes <= 0 || dm.NewLen < 0 || dm.ParentLen < 0 ||
		dm.Chunks != (dm.NewLen+dm.ChunkBytes-1)/dm.ChunkBytes {
		return fmt.Errorf("ckptimg: inconsistent DMET section (%w)", ErrCorrupt)
	}
	return nil
}

// Flag bits of one STR2 item.
const (
	itemCommute byte = 1 << iota
	itemResultNull
	itemFreed
	itemKnownFlags = itemCommute | itemResultNull | itemFreed
)

// minItemBytes is the smallest encoding of one STR2 item: four bytes
// (kind, op, strategy, flags) and eight one-byte varints.
const minItemBytes = 12

// writeStoreSection writes the binary STR2 section: the design, the
// creation counter and the item count, then per item four bytes and
// its numbers as varints. Virtual ids, ggids, sequence numbers and
// descriptor integers are small in practice, and an indexed datatype's
// descriptor holds two integers per block: fixed-width fields would
// make the section several times larger.
func writeStoreSection(b *bytes.Buffer, st *vid.StoreSnapshot) {
	off := beginSection(b)
	appendUvarint(b, uint64(len(st.Design)))
	b.WriteString(st.Design)
	appendUvarint(b, st.Seq)
	appendUvarint(b, uint64(len(st.Items)))
	for i := range st.Items {
		it := &st.Items[i]
		d := &it.Desc
		var flags byte
		if d.Commute {
			flags |= itemCommute
		}
		if d.ResultNull {
			flags |= itemResultNull
		}
		if it.Freed {
			flags |= itemFreed
		}
		b.Write([]byte{byte(it.Kind), byte(d.Op), byte(it.Strategy), flags})
		appendUvarint(b, uint64(it.Virt))
		appendUvarint(b, uint64(it.GGID))
		appendVarint(b, int64(d.Const))
		appendUvarint(b, uint64(d.Parent))
		appendUvarint(b, uint64(d.Aux))
		appendUvarint(b, it.Seq)
		appendUvarint(b, uint64(len(d.Ints)))
		for _, v := range d.Ints {
			appendVarint(b, int64(v))
		}
		appendUvarint(b, uint64(len(d.OpName)))
		b.WriteString(d.OpName)
	}
	endSection(b, off, secStore2)
}

// decodeStore2 decodes the STR2 section. Empty item and integer lists
// decode as nil, as the gob codec before it produced them.
func decodeStore2(img *Image, payload []byte) error {
	r := &fieldReader{data: payload}
	var st vid.StoreSnapshot
	st.Design = string(r.take(r.count(1)))
	st.Seq = r.uvarint()
	if n := r.count(minItemBytes); n > 0 {
		st.Items = make([]vid.Item, n)
	}
	for i := range st.Items {
		p := r.take(4)
		if r.bad || p[3]&^itemKnownFlags != 0 {
			return badSection(secStore2)
		}
		it := &st.Items[i]
		d := &it.Desc
		it.Kind, d.Op, it.Strategy = mpi.Kind(p[0]), vid.DescOp(p[1]), vid.Strategy(p[2])
		d.Commute = p[3]&itemCommute != 0
		d.ResultNull = p[3]&itemResultNull != 0
		it.Freed = p[3]&itemFreed != 0
		it.Virt = mpi.Handle(r.uvarint())
		it.GGID = r.uvarint32()
		d.Const = mpi.ConstName(r.varint())
		d.Parent = vid.VID(r.uvarint32())
		d.Aux = vid.VID(r.uvarint32())
		it.Seq = r.uvarint()
		if n := r.count(1); n > 0 {
			d.Ints = make([]int, n)
			for j := range d.Ints {
				d.Ints[j] = int(r.varint())
			}
		}
		d.OpName = string(r.take(r.count(1)))
	}
	if !r.done() {
		return badSection(secStore2)
	}
	img.Store = st
	return nil
}
