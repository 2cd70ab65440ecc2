package ckptimg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"manasim/internal/mpi"
)

// This file is the compact binary codec for the fixed-shape sections of
// the v3 format: identity, delta linkage, drained messages, request
// results and counters are flat structs of ints, strings and byte
// slices, so they travel as fixed little-endian fields — gob would cost
// ~20 heap allocations per section per image on the parallel checkpoint
// path, where every rank encodes them on every generation. Only the vid
// store snapshot (STOR), a genuinely recursive structure, stays gob.
//
// The first v3 encoder shipped these sections as gob under the tags
// META, DMET, DRNS, REQS and CNTR; the binary codec took new tags.
// Decoders accept only the binary tags: an image carrying a gob-coded
// section is refused as ErrCorrupt (an unknown tag).

// Binary section tags.
const (
	secMeta2     uint32 = 0x4D455432 // "MET2": identity
	secDrained2  uint32 = 0x44524E32 // "DRN2": drained messages
	secReqs2     uint32 = 0x52515332 // "RQS2": request results
	secCounters2 uint32 = 0x43545232 // "CTR2": p2p counters
	secDeltaMet2 uint32 = 0x444D5432 // "DMT2": delta linkage
)

// ---------------------------------------------------------------------
// append-side primitives (write into a pooled bytes.Buffer)

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
func writeMetaSection(w io.Writer, img *Image) error {
	b := getBuf()
	defer putBuf(b)
	appendI64(b, int64(img.Rank))
	appendI64(b, int64(img.NRanks))
	appendI64(b, int64(img.Step))
	appendString(b, img.Impl)
	appendString(b, img.Design)
	appendBool(b, img.UniformHandles)
	appendI64(b, img.ModeledBytes)
	return writeSection(w, secMeta2, b.Bytes())
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

func writeDrainedSection(w io.Writer, msgs []DrainedMsg) error {
	b := getBuf()
	defer putBuf(b)
	appendU32(b, uint32(len(msgs)))
	for _, m := range msgs {
		appendU32(b, m.GGID)
		appendI64(b, int64(m.SrcCommRank))
		appendI64(b, int64(m.SrcWorld))
		appendI64(b, int64(m.Tag))
		appendBytes(b, m.Payload)
	}
	return writeSection(w, secDrained2, b.Bytes())
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

func writeReqsSection(w io.Writer, reqs []ReqResult) error {
	b := getBuf()
	defer putBuf(b)
	appendU32(b, uint32(len(reqs)))
	for _, rr := range reqs {
		appendU64(b, uint64(rr.Virt))
		appendI64(b, int64(rr.St.Source))
		appendI64(b, int64(rr.St.Tag))
		appendI64(b, int64(rr.St.Bytes))
	}
	return writeSection(w, secReqs2, b.Bytes())
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

func writeCountersSection(w io.Writer, sentTo, recvFrom []uint64) error {
	b := getBuf()
	defer putBuf(b)
	appendU32(b, uint32(len(sentTo)))
	for _, v := range sentTo {
		appendU64(b, v)
	}
	appendU32(b, uint32(len(recvFrom)))
	for _, v := range recvFrom {
		appendU64(b, v)
	}
	return writeSection(w, secCounters2, b.Bytes())
}

func decodeCounters2(img *Image, payload []byte) error {
	r := &fieldReader{data: payload}
	readVec := func() []uint64 {
		n := int(r.u32())
		if r.bad || n < 0 || n > len(payload)/8+1 {
			r.bad = true
			return nil
		}
		var out []uint64
		if n > 0 {
			out = make([]uint64, n)
		}
		for i := range out {
			out[i] = r.u64()
		}
		return out
	}
	sentTo := readVec()
	recvFrom := readVec()
	if !r.done() {
		return badSection(secCounters2)
	}
	img.SentTo, img.RecvFrom = sentTo, recvFrom
	return nil
}

// writeDeltaMetaSection writes the binary DMET section of a delta
// image.
func writeDeltaMetaSection(w io.Writer, dm *deltaMeta) error {
	b := getBuf()
	defer putBuf(b)
	appendI64(b, int64(dm.ParentGen))
	appendI64(b, int64(dm.ParentLen))
	appendI64(b, int64(dm.NewLen))
	appendI64(b, int64(dm.ChunkBytes))
	appendI64(b, int64(dm.Chunks))
	return writeSection(w, secDeltaMet2, b.Bytes())
}

// decodeDeltaMeta decodes the DMT2 section and validates its
// consistency.
func decodeDeltaMeta(payload []byte) (*deltaMeta, error) {
	r := &fieldReader{data: payload}
	dm := &deltaMeta{
		ParentGen:  int(r.i64()),
		ParentLen:  int(r.i64()),
		NewLen:     int(r.i64()),
		ChunkBytes: int(r.i64()),
		Chunks:     int(r.i64()),
	}
	if !r.done() {
		return nil, badSection(secDeltaMet2)
	}
	if dm.ChunkBytes <= 0 || dm.NewLen < 0 || dm.ParentLen < 0 ||
		dm.Chunks != (dm.NewLen+dm.ChunkBytes-1)/dm.ChunkBytes {
		return nil, fmt.Errorf("ckptimg: inconsistent DMET section (%w)", ErrCorrupt)
	}
	return dm, nil
}
