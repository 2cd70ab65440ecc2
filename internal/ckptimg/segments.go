package ckptimg

import (
	"bytes"
	"encoding/binary"
)

// Dedup segmentation: the checkpoint store's content-addressed layer
// needs image payloads split into segments that repeat byte-for-byte
// across ranks and generations. Arbitrary fixed-size chunking destroys
// that property — a one-byte length difference in a metadata section
// shifts every later boundary — so segmentation follows the v3 section
// framing instead: every content-bearing frame (an APPS app-state
// chunk, a DCHK changed-chunk record) becomes its own segment, aligned
// exactly on the payload bytes two ranks can actually share. Small
// frames and bookkeeping sections (META, STOR, unchanged DCHK records)
// coalesce into run segments so dedup metadata stays proportional to
// content, not to record count.

// segMinOwn is the smallest frame worth addressing individually;
// smaller frames coalesce into the surrounding run.
const segMinOwn = 128

// segMaxRun caps a coalesced run segment.
const segMaxRun = 32 << 10

// SplitDedupSegments splits an encoded image into dedup segments whose
// concatenation is exactly data. Segments alias data — callers must
// not retain them past the buffer's lifetime without copying. The
// split is a pure function of the bytes, so equal images always
// produce equal segmentation; section CRCs are not verified here (the
// store validates images before segmenting, and the blob layer keys
// every segment by its own checksum). A payload that is not a
// well-framed v3 image — the store refuses those before it splits
// anything — comes back whole, as one segment.
func SplitDedupSegments(data []byte) [][]byte {
	if segs, ok := splitSections(data); ok {
		return segs
	}
	return [][]byte{data}
}

// splitSections walks the v3 section frames without decoding them.
func splitSections(data []byte) ([][]byte, bool) {
	if len(data) < 16 || !bytes.Equal(data[:8], Magic[:]) {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[8:12]) != Version {
		return nil, false
	}
	var segs [][]byte
	pend := 0 // start of the current coalesced run (includes the header)
	off := 16
	for off < len(data) {
		if len(data)-off < 16 {
			return nil, false
		}
		size := binary.LittleEndian.Uint64(data[off+4 : off+12])
		if size > uint64(len(data)-off-16) {
			return nil, false
		}
		tag := binary.LittleEndian.Uint32(data[off : off+4])
		frame := 16 + int(size)
		content := tag == secApp || tag == secDeltaChunk
		switch {
		case content && frame >= segMinOwn:
			if off > pend {
				segs = append(segs, data[pend:off])
			}
			segs = append(segs, data[off:off+frame])
			pend = off + frame
		case off-pend+frame >= segMaxRun:
			segs = append(segs, data[pend:off+frame])
			pend = off + frame
		}
		off += frame
	}
	if pend < len(data) {
		segs = append(segs, data[pend:])
	}
	return segs, true
}

// SectionFrameBounds returns every offset a dedup segment boundary can
// fall on in a v3 image: 0, the end of the 16-byte header, and the end
// of each section frame (the last entry equals len(data)). Any segment
// SplitDedupSegments ever produced from this image is a contiguous run
// between two such bounds — the scrubber walks donor images with this
// to re-derive a damaged blob whose bytes survive inside an intact
// sharer under a different run grouping. ok is false when data is not
// a well-framed v3 image.
func SectionFrameBounds(data []byte) ([]int, bool) {
	if len(data) < 16 || !bytes.Equal(data[:8], Magic[:]) {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[8:12]) != Version {
		return nil, false
	}
	bounds := []int{0, 16}
	off := 16
	for off < len(data) {
		if len(data)-off < 16 {
			return nil, false
		}
		size := binary.LittleEndian.Uint64(data[off+4 : off+12])
		if size > uint64(len(data)-off-16) {
			return nil, false
		}
		off += 16 + int(size)
		bounds = append(bounds, off)
	}
	return bounds, true
}
