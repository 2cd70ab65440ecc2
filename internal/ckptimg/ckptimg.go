// Package ckptimg defines the checkpoint image format: the serialized
// upper half of one MANA rank. An image contains the application state
// blob, the virtual-id store snapshot (Section 4.2: "the structures are
// then saved as part of the checkpoint image"), the drained in-flight
// messages, the point-to-point counters (one entry per peer the rank
// talked to, Counters), and enough identity metadata to validate a
// restart.
//
// Format v3 is a streaming, sectioned encoding: a fixed header (magic,
// version, flags) followed by framed sections, each carrying its own
// CRC-32. The application state — the bulk of a real image — travels as
// raw chunked bytes (optionally compressed); every other section,
// the vid store snapshot included, has a compact binary codec
// (sections.go). Large images are written and read section by section,
// and a flipped bit anywhere turns into a clean error naming the
// damaged section. v3 with binary section tags is the only encoding the
// decoders accept: any other header version (the whole-body gob v2 of
// early builds) and the gob-coded section tags of early v3 builds
// (STOR among them) are refused as ErrCorrupt.
//
// The codec is built for the parallel checkpoint pipeline: encoders
// write each byte of application state into the output exactly once,
// scratch state (gzip writers/readers, section buffers) is pooled and
// reused across images, and the in-memory decoders walk sections as
// subslices of the input instead of copying every frame. All entry
// points are safe for concurrent use.
package ckptimg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// ErrCorrupt marks every decode failure caused by damaged image bytes —
// truncation, checksum mismatch, torn or concatenated writes, flags that
// contradict the payload, a header or section this build does not read.
// Callers distinguish "the image is broken" (errors.Is(err, ErrCorrupt))
// from structural misuse such as decoding a delta image through Decode
// (ErrDeltaImage).
var ErrCorrupt = errors.New("image corrupted")

// Magic identifies a MANA checkpoint image.
var Magic = [8]byte{'M', 'A', 'N', 'A', 'C', 'K', 'P', 'T'}

// Version is the image format version, the only one the decoders
// accept.
const Version uint32 = 3

// FlagGzip marks an image whose application-state section is
// gzip-compressed. On a delta image the flag applies per changed chunk:
// each changed chunk's payload is gzipped independently, because chunk
// boundaries must align with the parent's uncompressed chunk index.
const FlagGzip uint32 = 1 << 0

// FlagDelta marks an incremental image: the application state travels as
// per-chunk delta records against a parent generation instead of raw
// chunks. Delta images are read at chunk granularity with OpenDelta and
// resolved against their parent chain by the checkpoint store; Decode
// rejects them with ErrDeltaImage.
const FlagDelta uint32 = 1 << 1

// FlagFastCompress marks a gzip image written at the fast tier (flate
// BestSpeed, Options.Tier = TierFast). The flag is diagnostic — gzip
// streams are self-describing, so decoding does not need it — but it
// lets tooling tell hot-tier checkpoints from archival ones without
// inflating them.
const FlagFastCompress uint32 = 1 << 2

// FlagLZ marks an image whose application-state section is compressed
// with the fast-lz codec (lz.go, Options.Tier = TierFastLZ) instead of
// gzip. Like FlagGzip it applies per changed chunk on a delta image.
// FlagGzip and FlagLZ are mutually exclusive.
const FlagLZ uint32 = 1 << 3

// knownFlags masks the header bits this build understands.
const knownFlags = FlagGzip | FlagDelta | FlagFastCompress | FlagLZ

// AppChunk is the maximum payload of one application-state section:
// large snapshots are split so each chunk is framed and checksummed
// independently.
const AppChunk = 256 << 10

// maxSection bounds a single section's claimed payload size.
const maxSection = 1 << 31

// Section tags every image variant shares; the binary-coded identity,
// vid store and tail tags live in sections.go.
const (
	secApp uint32 = 0x41505053 // "APPS": application state chunk
	secEnd uint32 = 0x454E4421 // "END!": clean-end marker
)

// DrainedMsg is one in-flight point-to-point message captured by the
// drain protocol. The communicator is named by its ggid — the global
// group id is the only communicator name that survives restart.
type DrainedMsg struct {
	// GGID names the communicator the message was sent on.
	GGID uint32
	// SrcCommRank is the sender's rank within that communicator.
	SrcCommRank int
	// SrcWorld is the sender's world rank (counter bookkeeping).
	SrcWorld int
	// Tag is the message tag.
	Tag int
	// Payload is the packed message body.
	Payload []byte
}

// ReqResult records the completion of a receive request that MANA
// finished during the checkpoint drain; after restart, Wait/Test on the
// virtual request returns this status (the data already sits in the
// restored application buffer).
type ReqResult struct {
	Virt mpi.Handle
	St   mpi.Status
}

// Image is the serialized upper half of one rank.
type Image struct {
	// Identity.
	Rank   int
	NRanks int
	Step   int // boundary index at which the checkpoint was taken
	// Impl is the MPI implementation the image was taken under (for
	// diagnostics; restart may use a different one with uniform
	// handles).
	Impl string
	// Design is the vid store design ("virtid" or "legacy").
	Design string
	// UniformHandles records whether virtual handles use the 64-bit
	// MANA embedding (required for cross-implementation restart).
	UniformHandles bool

	// AppState is the application instance snapshot.
	AppState []byte
	// ModeledBytes is the modeled full working-set size (Table 3); the
	// filesystem model charges for it in addition to the real bytes.
	ModeledBytes int64

	// Store is the virtual-id table snapshot.
	Store vid.StoreSnapshot
	// Drained holds the in-flight messages captured by the drain.
	Drained []DrainedMsg
	// ReqResults holds receive requests completed during the drain.
	ReqResults []ReqResult

	// Counters are the rank's point-to-point message counters at the
	// cut, carried so the next checkpoint's accounting stays exact.
	Counters Counters
}

// Options parameterizes encoding.
type Options struct {
	// Compress gzips the application-state sections — the compression
	// tier for images whose snapshots are mostly redundant bytes.
	Compress bool
	// Tier selects the flate effort when Compress is set: TierBalanced
	// (default), TierFast (flate BestSpeed, FlagFastCompress — the hot
	// checkpoint tier), or TierMax (archival).
	Tier CompressTier
	// ChunkSize overrides the application-state chunk size (default
	// AppChunk). The checkpoint store shrinks it for small simulated
	// snapshots so the delta tier works at the same chunks-per-image
	// ratio a production-size image would have.
	ChunkSize int
}

// chunkSize resolves the configured chunk size.
func (o Options) chunkSize() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return AppChunk
}

// headerFlags resolves the v3 header flag bits the options imply.
func (o Options) headerFlags() uint32 {
	if !o.Compress {
		return 0
	}
	if o.Tier == TierFastLZ {
		return FlagLZ
	}
	flags := FlagGzip
	if o.Tier == TierFast {
		flags |= FlagFastCompress
	}
	return flags
}

// EncodeOpts serializes the image in the current format and returns
// exactly the bytes it wrote. The image is encoded into a pooled
// scratch buffer and returned as an exact-size copy (len == cap), so
// the application state is copied out once and whoever holds the image
// — the coordinator stages every rank of a generation, a store keeps
// it for good — holds its bytes and nothing behind them.
func EncodeOpts(img *Image, o Options) ([]byte, error) {
	buf := getBuf()
	defer putBuf(buf)
	if err := EncodeTo(buf, img, o); err != nil {
		return nil, err
	}
	return exactCopy(buf.Bytes()), nil
}

// exactCopy returns b in an array of its own, exactly as long as b:
// what an encoder hands out after encoding into pooled scratch.
func exactCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// EncodeTo appends the image to w section by section: header first,
// then each section framed in place with its own CRC, then the end
// marker. Only the app state under Options.Compress is staged, in
// pooled scratch, before it is chunked into sections.
func EncodeTo(w *bytes.Buffer, img *Image, o Options) error {
	writeImageHeader(w, o.headerFlags())
	writeMetaSection(w, img)

	app := img.AppState
	if o.Compress {
		if o.Tier == TierFastLZ {
			zp := getLZBuf()
			defer putLZBuf(zp)
			*zp = lzFrameCompress((*zp)[:0], app)
			app = *zp
		} else {
			z := getBuf()
			defer putBuf(z)
			zw := getGzipWriter(z, o.Tier)
			_, werr := zw.Write(app)
			cerr := zw.Close()
			putGzipWriter(o.Tier, zw)
			if werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("ckptimg: compressing app state: %w", werr)
			}
			app = z.Bytes()
		}
	}
	// Chunk the application state so each frame is bounded and
	// independently checksummed.
	cs := o.chunkSize()
	for off := 0; off == 0 || off < len(app); off += cs {
		end := min(off+cs, len(app))
		writeSection(w, secApp, app[off:end])
	}
	writeTailSections(w, img)
	return nil
}

// writeImageHeader appends the 16-byte image header: magic, version,
// flags.
func writeImageHeader(w *bytes.Buffer, flags uint32) {
	w.Write(Magic[:])
	appendU32(w, Version)
	appendU32(w, flags)
}

// writeTailSections writes the sections every image variant carries
// after its application payload — vid store, drained messages, request
// results, counters — and the end marker. A section added here reaches
// full and delta images alike. Every one uses the binary codec of
// sections.go.
func writeTailSections(w *bytes.Buffer, img *Image) {
	writeStoreSection(w, &img.Store)
	writeDrainedSection(w, img.Drained)
	writeReqsSection(w, img.ReqResults)
	writeCountersSection(w, img.Rank, img.Counters)
	writeSection(w, secEnd, nil)
}

// decodeCommonSection decodes into img one of the sections shared by
// the full and delta formats (isCommonTag).
func decodeCommonSection(img *Image, tag uint32, payload []byte) error {
	switch tag {
	case secMeta2:
		return decodeMeta2(img, payload)
	case secStore2:
		return decodeStore2(img, payload)
	case secDrained2:
		return decodeDrained2(img, payload)
	case secReqs2:
		return decodeReqs2(img, payload)
	case secCounters3:
		return decodeCounters3(img, payload)
	}
	return nil
}

// writeSection frames one section: tag, length, CRC-32, payload.
func writeSection(w *bytes.Buffer, tag uint32, payload []byte) {
	off := beginSection(w)
	w.Write(payload)
	endSection(w, off, tag)
}

// sectionHdr is the placeholder beginSection appends; it is never
// written.
var sectionHdr [16]byte

// beginSection appends a section header placeholder to w and returns
// its offset. The section's payload is appended to w after it, and
// endSection frames it in place: the header lives in the image being
// encoded, so framing a section allocates nothing and copies nothing.
func beginSection(w *bytes.Buffer) int {
	off := w.Len()
	w.Write(sectionHdr[:])
	return off
}

// endSection fills in the header beginSection reserved at off: tag,
// the length of everything appended since, and its CRC-32.
func endSection(w *bytes.Buffer, off int, tag uint32) {
	sec := w.Bytes()[off:]
	payload := sec[len(sectionHdr):]
	binary.LittleEndian.PutUint32(sec[0:4], tag)
	binary.LittleEndian.PutUint64(sec[4:12], uint64(len(payload)))
	binary.LittleEndian.PutUint32(sec[12:16], crc32.ChecksumIEEE(payload))
}

// tagName renders a section tag for error messages.
func tagName(tag uint32) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], tag)
	return string(b[:])
}

// ---------------------------------------------------------------------
// decode

// sectionCursor walks the framed sections of an in-memory image. The
// payloads it returns are subslices of the input — no per-section copy
// — so the input must not be mutated while decode results derived from
// it are in use.
type sectionCursor struct {
	data []byte
	off  int
}

// next reads and checksums one framed section.
func (c *sectionCursor) next() (uint32, []byte, error) {
	if c.off+16 > len(c.data) {
		return 0, nil, fmt.Errorf("ckptimg: image truncated reading section header (%w)", ErrCorrupt)
	}
	hdr := c.data[c.off : c.off+16]
	tag := binary.LittleEndian.Uint32(hdr[0:4])
	size := binary.LittleEndian.Uint64(hdr[4:12])
	wantCRC := binary.LittleEndian.Uint32(hdr[12:16])
	if size > maxSection {
		return 0, nil, fmt.Errorf("ckptimg: %s section claims %d bytes (%w)", tagName(tag), size, ErrCorrupt)
	}
	start := c.off + 16
	if uint64(len(c.data)-start) < size {
		return 0, nil, fmt.Errorf("ckptimg: image truncated reading %s section (%w)", tagName(tag), ErrCorrupt)
	}
	payload := c.data[start : start+int(size)]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return 0, nil, fmt.Errorf("ckptimg: %s section checksum mismatch (%w): %08x != %08x", tagName(tag), ErrCorrupt, got, wantCRC)
	}
	c.off = start + int(size)
	return tag, payload, nil
}

// rest reports the bytes remaining past the cursor.
func (c *sectionCursor) rest() int { return len(c.data) - c.off }

// parseHeader validates the 16-byte image header — magic, version, flag
// bits — and returns the flags. Every failure wraps ErrCorrupt: a
// header of another version, or with bits this build does not know, is
// as unreadable to a restart as a damaged one.
func parseHeader(data []byte) (flags uint32, err error) {
	if len(data) < 16 {
		return 0, fmt.Errorf("ckptimg: image truncated reading header (%w)", ErrCorrupt)
	}
	if !bytes.Equal(data[:8], Magic[:]) {
		return 0, fmt.Errorf("ckptimg: bad magic %q (%w)", data[:8], ErrCorrupt)
	}
	if ver := binary.LittleEndian.Uint32(data[8:12]); ver != Version {
		return 0, fmt.Errorf("ckptimg: unsupported image version %d, want %d (%w)", ver, Version, ErrCorrupt)
	}
	flags = binary.LittleEndian.Uint32(data[12:16])
	if flags&^knownFlags != 0 {
		return 0, fmt.Errorf("ckptimg: unknown header flags %#x (%w)", flags&^knownFlags, ErrCorrupt)
	}
	if flags&FlagGzip != 0 && flags&FlagLZ != 0 {
		return 0, fmt.Errorf("ckptimg: image claims both gzip and fast-lz compression (%w)", ErrCorrupt)
	}
	return flags, nil
}

// Decode validates and deserializes an image. The returned Image owns
// all of its memory (nothing aliases data), so data may be reused
// afterwards.
func Decode(data []byte) (*Image, error) { return DecodeInto(data, nil) }

// DecodeInto is Decode with the application state written into state's
// backing array when it is large enough (into a fresh allocation
// otherwise): the image's AppState may alias state, everything else the
// image owns. A caller restoring a set of images one at a time decodes
// them all through one buffer this way.
func DecodeInto(data, state []byte) (*Image, error) {
	img := &Image{}
	var appChunks [][]byte
	var appLen int
	flags, err := walkSections(data, false, img, func(tag uint32, payload []byte) error {
		if tag != secApp {
			return fmt.Errorf("ckptimg: unknown section tag %#x (%w)", tag, ErrCorrupt)
		}
		appChunks = append(appChunks, payload)
		appLen += len(payload)
		return nil
	})
	if err != nil {
		return nil, err
	}
	app, err := assembleAppState(state, appChunks, appLen, flags)
	if err != nil {
		return nil, err
	}
	if len(app) > 0 {
		img.AppState = app
	}
	return img, nil
}

// assembleAppState rebuilds the application state from its section
// payloads into dst's backing array, or a fresh exact-size one when dst
// is too small: a copy of raw chunks, or one inflate pass for compressed
// state. The result never aliases the chunks.
func assembleAppState(dst []byte, chunks [][]byte, total int, flags uint32) ([]byte, error) {
	if flags&(FlagGzip|FlagLZ) == 0 {
		if total == 0 {
			return nil, nil
		}
		app := sized(dst, total)[:0]
		for _, ch := range chunks {
			app = append(app, ch...)
		}
		return app, nil
	}
	// Compressed: the concatenated chunks form one gzip stream or one
	// fast-lz frame.
	var stream []byte
	if len(chunks) == 1 {
		stream = chunks[0]
	} else {
		scratch := getBuf()
		defer putBuf(scratch)
		scratch.Grow(total)
		for _, ch := range chunks {
			scratch.Write(ch)
		}
		stream = scratch.Bytes()
	}
	var app []byte
	var err error
	if flags&FlagLZ != 0 {
		app, err = lzFrameDecompress(dst, stream)
	} else {
		app, err = gunzip(dst[:0], stream)
	}
	if err != nil {
		return nil, fmt.Errorf("ckptimg: decompressing app state (%w): %w", ErrCorrupt, err)
	}
	return app, nil
}

// sized returns n bytes of b's backing array, or a fresh n-byte slice
// when b is too small.
func sized(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// PeekMeta decodes only the identity metadata of an image — full or
// delta — by reading the header and the leading META section, never
// touching the application payload. The checkpoint store uses it on
// the commit path when it needs the step but no chunk indexing.
func PeekMeta(data []byte) (*Image, error) {
	if _, err := parseHeader(data); err != nil {
		return nil, err
	}
	c := &sectionCursor{data: data, off: 16}
	tag, payload, err := c.next()
	if err != nil {
		return nil, err
	}
	if tag != secMeta2 {
		return nil, fmt.Errorf("ckptimg: image does not lead with a META section (%w)", ErrCorrupt)
	}
	img := &Image{}
	if err := decodeMeta2(img, payload); err != nil {
		return nil, err
	}
	return img, nil
}

// gunzip inflates one gzip stream, appending to dst, treating any
// inflate failure as corruption (a gzip flag on non-gzip bytes, a
// damaged stream). The output buffer is pre-sized from the stream's
// ISIZE trailer (clamped, since corrupt trailers may claim anything).
func gunzip(dst, data []byte) ([]byte, error) {
	zr, err := getGzipReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	hint := int64(0)
	if len(data) >= 4 {
		hint = int64(binary.LittleEndian.Uint32(data[len(data)-4:]))
	}
	if limit := int64(len(data))*1024 + 1024; hint > limit || hint > maxSection {
		hint = 0
	}
	buf := bytes.NewBuffer(dst)
	buf.Grow(int(hint))
	if _, err := buf.ReadFrom(zr); err != nil {
		putGzipReader(zr)
		return nil, err
	}
	err = zr.Close()
	putGzipReader(zr)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ValidateSet checks that a set of images forms one consistent job
// checkpoint: one image per rank, same step, same rank count, same
// design.
func ValidateSet(imgs []*Image) error {
	if len(imgs) == 0 {
		return fmt.Errorf("ckptimg: empty image set")
	}
	n := imgs[0].NRanks
	if len(imgs) != n {
		return fmt.Errorf("ckptimg: %d images for a %d-rank job", len(imgs), n)
	}
	seen := make([]bool, n)
	for _, img := range imgs {
		if img.NRanks != n {
			return fmt.Errorf("ckptimg: rank %d image claims %d ranks, others %d", img.Rank, img.NRanks, n)
		}
		if img.Rank < 0 || img.Rank >= n {
			return fmt.Errorf("ckptimg: image rank %d out of range", img.Rank)
		}
		if seen[img.Rank] {
			return fmt.Errorf("ckptimg: duplicate image for rank %d", img.Rank)
		}
		seen[img.Rank] = true
		if img.Step != imgs[0].Step {
			return fmt.Errorf("ckptimg: inconsistent cut: rank %d at step %d, rank %d at step %d",
				img.Rank, img.Step, imgs[0].Rank, imgs[0].Step)
		}
		if img.Design != imgs[0].Design {
			return fmt.Errorf("ckptimg: mixed vid designs %q and %q", img.Design, imgs[0].Design)
		}
	}
	return nil
}

// TotalBytes reports real plus modeled bytes of an image, the size the
// filesystem model charges for.
func (img *Image) TotalBytes(realEncoded int) int64 {
	return int64(realEncoded) + img.ModeledBytes
}
