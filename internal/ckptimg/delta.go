package ckptimg

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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
// linkage tags (DMET gob-legacy, DMT2 binary) live in sections.go.
const secDeltaChunk uint32 = 0x4443484B

// ErrDeltaImage reports that Decode was handed a delta image, which
// cannot be materialized on its own; use DecodeDelta and resolve the
// chain through the checkpoint store.
var ErrDeltaImage = errors.New("ckptimg: image is an incremental delta (decode with DecodeDelta and resolve its parent chain)")

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

// IndexAppState computes the chunk-CRC index of an application state.
// chunkBytes <= 0 selects AppChunk. An empty state indexes to zero
// chunks.
func IndexAppState(app []byte, chunkBytes int) ChunkIndex {
	if chunkBytes <= 0 {
		chunkBytes = AppChunk
	}
	x := ChunkIndex{ChunkBytes: chunkBytes, Total: len(app)}
	if len(app) > 0 {
		x.CRCs = make([]uint32, 0, (len(app)+chunkBytes-1)/chunkBytes)
	}
	for off := 0; off < len(app); off += chunkBytes {
		end := min(off+chunkBytes, len(app))
		x.CRCs = append(x.CRCs, crc32.ChecksumIEEE(app[off:end]))
	}
	return x
}

// deltaMeta is the DMET section payload: the chain linkage a delta
// image needs to be applied safely.
type deltaMeta struct {
	// ParentGen is the store generation sequence number this delta was
	// encoded against (diagnostics; the store validates the chain).
	ParentGen int
	// ParentLen is the parent application state's byte length; Apply
	// refuses a parent of any other size.
	ParentLen int
	// NewLen is this image's application-state byte length.
	NewLen int
	// ChunkBytes is the chunk size of both indexes.
	ChunkBytes int
	// Chunks is the number of DCHK records that follow.
	Chunks int
}

// DeltaChunk is one decoded chunk record.
type DeltaChunk struct {
	// CRC is the CRC-32 of the chunk's (uncompressed) content — the
	// value the next generation's index carries for this chunk.
	CRC uint32
	// Data holds the new chunk bytes; nil marks a chunk unchanged since
	// the parent generation.
	Data []byte
}

// Delta is a decoded incremental image: every Image field except the
// application state, plus the per-chunk records needed to rebuild it
// from the parent generation's state.
//
// Uncompressed chunk Data subslices the buffer handed to DecodeDelta —
// there is no per-chunk copy — so the caller must not mutate that
// buffer while the Delta is in use.
type Delta struct {
	// Image carries the identity, vid store, drained messages, request
	// results, and counters; Image.AppState is nil.
	Image *Image
	// ParentGen, ParentLen, NewLen, ChunkBytes mirror the DMET section.
	ParentGen  int
	ParentLen  int
	NewLen     int
	ChunkBytes int
	// Chunks holds one record per chunk of the new application state.
	Chunks []DeltaChunk
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
// Each chunk's CRC is computed once (a scan pass that sizes the output
// exactly), and each changed chunk's bytes are then copied straight
// into their output frame — so no byte of the application state is
// copied more than once, and the output buffer never reallocates on
// the uncompressed path. Under compression the image is encoded into
// pooled scratch and returned as an exact-size copy, like EncodeOpts.
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

	// Scan pass: CRC every chunk and tally the changed bytes, so the
	// uncompressed output buffer is grown once to its exact size —
	// regrowth would recopy already-written chunk data.
	crcs := make([]uint32, chunks)
	changedBytes := 0
	st := DeltaStats{Chunks: chunks}
	for i := 0; i < chunks; i++ {
		off := i * cs
		end := min(off+cs, len(app))
		chunk := app[off:end]
		crcs[i] = crc32.ChecksumIEEE(chunk)
		if !(i < len(parent.CRCs) && parent.chunkLen(i) == len(chunk) && parent.CRCs[i] == crcs[i]) {
			st.Changed++
			changedBytes += len(chunk)
		}
	}

	var buf *bytes.Buffer
	if o.Compress {
		buf = getBuf()
		defer putBuf(buf)
	} else {
		buf = new(bytes.Buffer)
		buf.Grow(16 + 25*chunks + changedBytes + img.tailSizeHint())
	}
	var hdr [16]byte
	copy(hdr[:8], Magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], FlagDelta|o.headerFlags())
	buf.Write(hdr[:])

	if err := writeMetaSection(buf, img); err != nil {
		return nil, DeltaStats{}, err
	}

	if err := writeDeltaMetaSection(buf, &deltaMeta{
		ParentGen: parentGen, ParentLen: parent.Total,
		NewLen: len(app), ChunkBytes: cs, Chunks: chunks,
	}); err != nil {
		return nil, DeltaStats{}, err
	}

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
		crc := crcs[i]
		unchanged := i < len(parent.CRCs) && parent.chunkLen(i) == len(chunk) && parent.CRCs[i] == crc

		var rec [9]byte
		binary.LittleEndian.PutUint32(rec[0:4], uint32(i))
		binary.LittleEndian.PutUint32(rec[5:9], crc)
		if unchanged {
			if err := writeSection(buf, secDeltaChunk, rec[:]); err != nil {
				return nil, DeltaStats{}, err
			}
			continue
		}
		rec[4] = 1
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
		if err := writeSection2(buf, secDeltaChunk, rec[:], data); err != nil {
			return nil, DeltaStats{}, err
		}
	}

	if err := writeTailSections(buf, img); err != nil {
		return nil, DeltaStats{}, err
	}
	if o.Compress {
		return exactCopy(buf.Bytes()), st, nil
	}
	return buf.Bytes(), st, nil
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

// decodeDeltaMetaAny decodes a delta-linkage section — binary DMT2 or
// the gob-coded DMET of earlier builds — and validates its consistency.
func decodeDeltaMetaAny(tag uint32, payload []byte) (*deltaMeta, error) {
	var dm *deltaMeta
	if tag == secDeltaMet2 {
		var err error
		if dm, err = decodeDeltaMeta2(payload); err != nil {
			return nil, err
		}
	} else {
		dm = &deltaMeta{}
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(dm); err != nil {
			return nil, fmt.Errorf("ckptimg: decoding DMET section: %w", err)
		}
	}
	if dm.ChunkBytes <= 0 || dm.NewLen < 0 || dm.ParentLen < 0 ||
		dm.Chunks != (dm.NewLen+dm.ChunkBytes-1)/dm.ChunkBytes {
		return nil, fmt.Errorf("ckptimg: inconsistent DMET section (%w)", ErrCorrupt)
	}
	return dm, nil
}

// DecodeDelta validates and deserializes a delta image, inflating every
// changed chunk. Uncompressed chunk payloads alias data (see Delta);
// everything else is copied. It is the chunk-level streaming decoder
// (OpenDelta) plus an inflate pass — the streaming restart resolver
// uses OpenDelta directly so superseded chunks are never inflated.
func DecodeDelta(data []byte) (*Delta, error) {
	if ver, flags, err := parseHeader(data); err != nil {
		return nil, err
	} else if ver == Version && flags&^knownFlags == 0 && flags&FlagDelta == 0 {
		return nil, fmt.Errorf("ckptimg: not a delta image (decode with Decode)")
	}
	r, err := OpenDelta(data, true)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	d := &Delta{
		Image:     r.Image,
		ParentGen: r.ParentGen, ParentLen: r.ParentLen,
		NewLen: r.NewLen, ChunkBytes: r.ChunkBytes,
		Chunks: make([]DeltaChunk, r.NumChunks()),
	}
	for i := range d.Chunks {
		ch := r.Chunk(i)
		dc := DeltaChunk{CRC: ch.CRC}
		if ch.Changed {
			if r.Compressed() {
				// The chunk's uncompressed size is pinned by DMET, so it
				// inflates into an exact-size buffer (one pooled gzip
				// reader serves every chunk; InflateChunk verifies the
				// content CRC).
				buf := make([]byte, r.ChunkLen(i))
				if err := r.InflateChunk(i, buf); err != nil {
					return nil, err
				}
				dc.Data = buf
			} else {
				if crc32.ChecksumIEEE(ch.Payload) != ch.CRC {
					return nil, fmt.Errorf("ckptimg: delta chunk %d content checksum mismatch (%w)", i, ErrCorrupt)
				}
				dc.Data = ch.Payload
			}
		}
		d.Chunks[i] = dc
	}
	return d, nil
}

// Apply materializes the full image by filling unchanged chunks from
// the parent generation's application state. Every chunk — copied or
// shipped — is verified against its recorded CRC, so applying a delta
// to the wrong parent fails instead of silently producing garbage.
func (d *Delta) Apply(parentApp []byte) (*Image, error) {
	if len(parentApp) != d.ParentLen {
		return nil, fmt.Errorf("ckptimg: delta parent is %d bytes, image expects %d (wrong generation?)", len(parentApp), d.ParentLen)
	}
	app := make([]byte, 0, d.NewLen)
	for i, ch := range d.Chunks {
		off := i * d.ChunkBytes
		want := min(d.ChunkBytes, d.NewLen-off)
		chunk := ch.Data
		if chunk == nil {
			if off+want > len(parentApp) {
				return nil, fmt.Errorf("ckptimg: unchanged chunk %d outside parent state (%w)", i, ErrCorrupt)
			}
			chunk = parentApp[off : off+want]
			if crc32.ChecksumIEEE(chunk) != ch.CRC {
				return nil, fmt.Errorf("ckptimg: parent chunk %d checksum mismatch (wrong generation?)", i)
			}
		}
		if len(chunk) != want {
			return nil, fmt.Errorf("ckptimg: delta chunk %d is %d bytes, want %d (%w)", i, len(chunk), want, ErrCorrupt)
		}
		app = append(app, chunk...)
	}
	img := *d.Image
	if len(app) > 0 {
		img.AppState = app
	}
	return &img, nil
}
