package ckptimg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file is the incremental tier of the v3 image format
// (arXiv:1906.05020: incremental checkpointing is the dominant cost
// saver at high checkpoint frequency). A delta image carries every
// section of a full image except the raw application state: instead of
// APPS chunks it ships DCHK records that say, per fixed-size chunk of
// the new application state, either "unchanged since the parent
// generation" (proved by CRC match against the parent's chunk index) or
// the new chunk bytes. Materializing a delta therefore needs the parent
// generation's application state — the checkpoint store resolves the
// base+delta chain; this package only defines the per-image format.

// secDeltaChunk tags one app-state chunk record ("DCHK"); the delta
// linkage tag (DMT2) lives in sections.go.
const secDeltaChunk uint32 = 0x4443484B

// ErrDeltaImage reports that Decode was handed a delta image, which
// cannot be materialized on its own; read it with OpenDelta and resolve
// its parent chain through the checkpoint store.
var ErrDeltaImage = errors.New("ckptimg: image is an incremental delta (read it with OpenDelta and resolve its parent chain through the checkpoint store)")

// ChunkIndex is the per-chunk CRC index of one rank's application
// state: the structure the checkpoint store keeps across generations so
// the next delta can prove chunks unchanged without holding the parent
// bytes.
type ChunkIndex struct {
	// ChunkBytes is the chunk size the index was computed with. Parent
	// and child must agree; the store pins it per store.
	ChunkBytes int
	// Total is the application-state length in bytes.
	Total int
	// CRCs holds the CRC-32 of each chunk, in order. The last chunk may
	// be short (Total % ChunkBytes).
	CRCs []uint32
}

// chunkLen returns the byte length of chunk i.
func (x ChunkIndex) chunkLen(i int) int {
	return min(x.ChunkBytes, x.Total-i*x.ChunkBytes)
}

// deltaMeta is the DMET section payload: the chain linkage a delta
// image needs to be applied safely.
type deltaMeta struct {
	// ParentGen is the store generation sequence number this delta was
	// encoded against (diagnostics; the store validates the chain).
	ParentGen int
	// ParentLen is the parent application state's byte length; chain
	// resolution refuses a parent of any other size.
	ParentLen int
	// NewLen is this image's application-state byte length.
	NewLen int
	// ChunkBytes is the chunk size of both indexes.
	ChunkBytes int
	// Chunks is the number of DCHK records that follow.
	Chunks int
}

// DeltaStats summarizes one delta encode.
type DeltaStats struct {
	// Chunks is the total chunk count of the new application state.
	Chunks int
	// Changed is how many of them shipped bytes.
	Changed int
}

// ChangedFraction reports the shipped fraction of the application
// state, 1 when the image has no chunks (nothing was saved).
func (s DeltaStats) ChangedFraction() float64 {
	if s.Chunks == 0 {
		return 1
	}
	return float64(s.Changed) / float64(s.Chunks)
}

// EncodeDelta serializes img as an incremental image against the parent
// generation's chunk index: chunks whose CRC (and length) match the
// parent ship as "unchanged" records, everything else ships its bytes.
// parentGen names the parent generation for diagnostics and chain
// validation. Options.Compress gzips each changed chunk independently
// at Options.Tier; Options.ChunkSize must be unset or equal to
// parent.ChunkBytes.
//
// Each chunk's CRC is computed once and each changed chunk's bytes are
// written straight into their output frame. Like EncodeOpts, the image
// is encoded into pooled scratch and returned as an exact-size copy.
func EncodeDelta(img *Image, parent ChunkIndex, parentGen int, o Options) ([]byte, DeltaStats, error) {
	if parent.ChunkBytes <= 0 {
		return nil, DeltaStats{}, fmt.Errorf("ckptimg: delta parent index has no chunk size")
	}
	if o.ChunkSize != 0 && o.ChunkSize != parent.ChunkBytes {
		return nil, DeltaStats{}, fmt.Errorf("ckptimg: delta chunk size %d != parent index %d", o.ChunkSize, parent.ChunkBytes)
	}
	cs := parent.ChunkBytes
	app := img.AppState
	chunks := (len(app) + cs - 1) / cs

	st := DeltaStats{Chunks: chunks}
	buf := getBuf()
	defer putBuf(buf)
	writeImageHeader(buf, FlagDelta|o.headerFlags())
	writeMetaSection(buf, img)

	writeDeltaMetaSection(buf, &deltaMeta{
		ParentGen: parentGen, ParentLen: parent.Total,
		NewLen: len(app), ChunkBytes: cs, Chunks: chunks,
	})

	// One pooled scratch buffer serves every compressed chunk.
	lz := o.Compress && o.Tier == TierFastLZ
	var z *bytes.Buffer
	var zp *[]byte
	if lz {
		zp = getLZBuf()
		defer putLZBuf(zp)
	} else if o.Compress {
		z = getBuf()
		defer putBuf(z)
	}

	for i := 0; i < chunks; i++ {
		off := i * cs
		end := min(off+cs, len(app))
		chunk := app[off:end]
		crc := crc32.ChecksumIEEE(chunk)
		unchanged := i < len(parent.CRCs) && parent.chunkLen(i) == len(chunk) && parent.CRCs[i] == crc

		var rec [9]byte
		binary.LittleEndian.PutUint32(rec[0:4], uint32(i))
		binary.LittleEndian.PutUint32(rec[5:9], crc)
		if unchanged {
			writeSection(buf, secDeltaChunk, rec[:])
			continue
		}
		rec[4] = 1
		st.Changed++
		data := chunk
		if lz {
			*zp = lzFrameCompress((*zp)[:0], chunk)
			data = *zp
		} else if o.Compress {
			z.Reset()
			zw := getGzipWriter(z, o.Tier)
			_, werr := zw.Write(chunk)
			cerr := zw.Close()
			putGzipWriter(o.Tier, zw)
			if werr == nil {
				werr = cerr
			}
			if werr != nil {
				return nil, DeltaStats{}, fmt.Errorf("ckptimg: compressing delta chunk %d: %w", i, werr)
			}
			data = z.Bytes()
		}
		sec := beginSection(buf)
		buf.Write(rec[:])
		buf.Write(data)
		endSection(buf, sec, secDeltaChunk)
	}

	writeTailSections(buf, img)
	return exactCopy(buf.Bytes()), st, nil
}

// IsDelta reports whether data begins with a v3 delta-image header. It
// never errors: malformed prefixes simply report false and fail later
// in the real decode.
func IsDelta(data []byte) bool {
	if len(data) < 16 || !bytes.Equal(data[:8], Magic[:]) {
		return false
	}
	return binary.LittleEndian.Uint32(data[8:12]) == Version &&
		binary.LittleEndian.Uint32(data[12:16])&FlagDelta != 0
}
