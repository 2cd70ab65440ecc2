package ckptimg

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// This file is the chunk-level streaming tier of the decoder: the
// restart-side counterpart of the incremental encoder in delta.go. The
// restart resolver decides a newest-wins owner per chunk position
// across the whole base+delta chain first, and only then decompresses
// the winning chunks — so it needs to see a link's chunk *structure*
// (positions, CRCs, changed flags, raw payloads) without paying for any
// inflation. ChunkReader provides that view for delta images;
// AppReader streams a full image's application state sequentially, so
// a base's superseded chunks are skipped instead of materialized.
//
// Both readers still verify every section frame's CRC-32 while walking
// the image (the sectionCursor does), so damaged bytes are detected
// even in chunks whose content is never inflated; only gzip-internal
// checks are deferred to the chunks that actually win.

// RawChunk is one un-inflated chunk record of a delta image.
type RawChunk struct {
	// CRC is the CRC-32 of the chunk's uncompressed content.
	CRC uint32
	// Changed reports that the record ships bytes; unchanged chunks
	// resolve from the parent generation.
	Changed bool
	// Payload holds a changed chunk's encoded bytes — gzip-compressed
	// when the image carries FlagGzip — aliasing the Open input.
	Payload []byte
}

// ChunkReader is the chunk-granular decoder of a delta image: linkage,
// per-chunk records, and (optionally) the tail sections, with no chunk
// inflated until InflateChunk asks for it. Open reads another image
// into the same reader and chunk table. Chunk payloads alias the latest
// Open's input, so the caller must keep it alive and unmodified until
// Close or the next Open; Close drops them and Image, so a reader kept
// for reuse pins no earlier image. Not safe for concurrent use.
type ChunkReader struct {
	// Image carries the identity and tail sections (vid store, drained
	// messages, request results, counters); nil unless Open was asked to
	// decode them. The restart resolver decodes one tail per rank — the
	// newest link's — and skips the rest.
	Image *Image
	// deltaMeta is the DMET section; its ParentGen, ParentLen, NewLen
	// and ChunkBytes are promoted.
	deltaMeta
	// NumChanged counts the records that ship bytes.
	NumChanged int

	chunks     []RawChunk
	seen       []bool
	compressed bool
	inf        chunkInflater
}

// OpenDelta opens a delta image in a new ChunkReader (see Open).
func OpenDelta(data []byte, decodeTail bool) (*ChunkReader, error) {
	r := &ChunkReader{}
	if err := r.Open(data, decodeTail); err != nil {
		return nil, err
	}
	return r, nil
}

// Open drops what r held and parses a delta image into it at chunk
// granularity. Every section frame is checksum-verified, the DMET
// linkage and all chunk records are collected, but no chunk content is
// decompressed. decodeTail also decodes the common sections into a new
// Image (needed for the link whose identity survives into the
// materialized image); without it they are frame-checked and skipped.
func (r *ChunkReader) Open(data []byte, decodeTail bool) error {
	r.Close()
	r.NumChanged = 0
	if decodeTail {
		r.Image = &Image{}
	}
	sawDMET := false
	flags, err := walkSections(data, true, r.Image, func(tag uint32, payload []byte) error {
		switch tag {
		case secDeltaMet2:
			if err := r.deltaMeta.decode(payload); err != nil {
				return err
			}
			sawDMET = true
			r.chunks = slices.Grow(r.chunks[:0], r.Chunks)[:r.Chunks]
			r.seen = slices.Grow(r.seen[:0], r.Chunks)[:r.Chunks]
			clear(r.chunks)
			clear(r.seen)
		case secDeltaChunk:
			if !sawDMET {
				return fmt.Errorf("ckptimg: DCHK section before DMET (%w)", ErrCorrupt)
			}
			if len(payload) < 9 {
				return fmt.Errorf("ckptimg: short DCHK record (%w)", ErrCorrupt)
			}
			i := int(binary.LittleEndian.Uint32(payload[0:4]))
			if i < 0 || i >= len(r.chunks) {
				return fmt.Errorf("ckptimg: DCHK chunk index %d of %d (%w)", i, len(r.chunks), ErrCorrupt)
			}
			if r.seen[i] {
				return fmt.Errorf("ckptimg: duplicate DCHK record for chunk %d (%w)", i, ErrCorrupt)
			}
			r.seen[i] = true
			ch := RawChunk{CRC: binary.LittleEndian.Uint32(payload[5:9]), Changed: payload[4] != 0}
			if ch.Changed {
				ch.Payload = payload[9:]
				r.NumChanged++
			}
			r.chunks[i] = ch
		default:
			return fmt.Errorf("ckptimg: unknown section tag %#x (%w)", tag, ErrCorrupt)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !sawDMET {
		return fmt.Errorf("ckptimg: delta image has no DMET section (%w)", ErrCorrupt)
	}
	for i, s := range r.seen {
		if !s {
			return fmt.Errorf("ckptimg: delta is missing the DCHK record for chunk %d (%w)", i, ErrCorrupt)
		}
	}
	r.compressed, r.inf.lz = flags&(FlagGzip|FlagLZ) != 0, flags&FlagLZ != 0
	return nil
}

// NumChunks reports the chunk count of the image's application state.
func (r *ChunkReader) NumChunks() int { return len(r.chunks) }

// Chunk returns chunk record i.
func (r *ChunkReader) Chunk(i int) RawChunk { return r.chunks[i] }

// ChunkLen reports the uncompressed byte length of chunk i.
func (r *ChunkReader) ChunkLen(i int) int {
	return min(r.ChunkBytes, r.NewLen-i*r.ChunkBytes)
}

// InflateChunk decodes changed chunk i into dst — which must be exactly
// ChunkLen(i) bytes — verifying the recorded content CRC. The gzip
// reader behind compressed chunks is pooled and reused across calls.
func (r *ChunkReader) InflateChunk(i int, dst []byte) error {
	ch := r.chunks[i]
	if !ch.Changed {
		return fmt.Errorf("ckptimg: chunk %d is unchanged (resolve it from the parent chain)", i)
	}
	if r.compressed {
		if err := r.inf.inflateInto(dst, ch.Payload); err != nil {
			return fmt.Errorf("ckptimg: decompressing delta chunk %d (%w): %w", i, ErrCorrupt, err)
		}
	} else {
		if len(ch.Payload) != len(dst) {
			return fmt.Errorf("ckptimg: delta chunk %d is %d bytes, want %d (%w)", i, len(ch.Payload), len(dst), ErrCorrupt)
		}
		copy(dst, ch.Payload)
	}
	if crc32.ChecksumIEEE(dst) != ch.CRC {
		return fmt.Errorf("ckptimg: delta chunk %d content checksum mismatch (%w)", i, ErrCorrupt)
	}
	return nil
}

// Close releases the pooled codec state and drops the chunk payloads and
// Image; the reader may be opened again.
func (r *ChunkReader) Close() {
	r.inf.release()
	clear(r.chunks)
	r.Image = nil
}

// isCommonTag reports whether tag is one of the sections shared by full
// and delta images (identity, vid store, drained messages, request
// results, counters).
func isCommonTag(tag uint32) bool {
	switch tag {
	case secMeta2, secStore2, secDrained2, secReqs2, secCounters3:
		return true
	}
	return false
}

// walkSections checks data's header — a delta image when delta is set,
// a full one (else ErrDeltaImage) otherwise — and walks its sections,
// frame-checking each. It decodes the common sections into img, or
// skips them when img is nil, and hands every other section to fn. It
// refuses an image with no META section or with bytes after its end
// marker, and returns the header flags.
func walkSections(data []byte, delta bool, img *Image, fn func(tag uint32, payload []byte) error) (uint32, error) {
	flags, err := parseHeader(data)
	switch {
	case err != nil:
		return 0, err
	case delta && flags&FlagDelta == 0:
		return 0, fmt.Errorf("ckptimg: not a delta image (stream it with an AppReader)")
	case !delta && flags&FlagDelta != 0:
		return 0, ErrDeltaImage
	}
	var sawMeta, sawEnd bool
	c := &sectionCursor{data: data, off: 16}
	for !sawEnd {
		tag, payload, err := c.next()
		switch {
		case err != nil:
			return 0, err
		case tag == secEnd:
			sawEnd = true
		case isCommonTag(tag):
			sawMeta = sawMeta || tag == secMeta2
			if img != nil {
				if err := decodeCommonSection(img, tag, payload); err != nil {
					return 0, err
				}
			}
		default:
			if err := fn(tag, payload); err != nil {
				return 0, err
			}
		}
	}
	if !sawMeta {
		return 0, fmt.Errorf("ckptimg: image has no META section (%w)", ErrCorrupt)
	}
	if c.rest() > 0 {
		return 0, fmt.Errorf("ckptimg: trailing data after end marker (%w)", ErrCorrupt)
	}
	return flags, nil
}

// ---------------------------------------------------------------------
// sequential app-state streaming over full images

// multiSliceReader reads a sequence of byte slices as one stream and
// skips regions without copying them.
type multiSliceReader struct {
	parts [][]byte
	i     int
}

func (m *multiSliceReader) Read(p []byte) (int, error) {
	for m.i < len(m.parts) && len(m.parts[m.i]) == 0 {
		m.i++
	}
	if m.i >= len(m.parts) {
		return 0, io.EOF
	}
	n := copy(p, m.parts[m.i])
	m.parts[m.i] = m.parts[m.i][n:]
	return n, nil
}

// empty reports that every part has been read or skipped.
func (m *multiSliceReader) empty() bool {
	for _, part := range m.parts[m.i:] {
		if len(part) > 0 {
			return false
		}
	}
	return true
}

// skip discards n bytes without copying; fewer available is an error.
func (m *multiSliceReader) skip(n int) error {
	for n > 0 && m.i < len(m.parts) {
		part := m.parts[m.i]
		if len(part) > n {
			m.parts[m.i] = part[n:]
			return nil
		}
		n -= len(part)
		m.i++
	}
	if n > 0 {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// AppReader streams the raw application state of a full (non-delta) v3
// image without materializing it: the chunk-pipelined restart path
// reads a base's winning chunks in order and skips superseded ones. On
// an uncompressed image Skip is free (APPS payloads are subslices of
// the input); on a gzip image the single stream must still be inflated
// through, but nothing is copied out for skipped regions; on a fast-lz
// image whole 64 KiB blocks spanned by a Skip are passed over without
// inflating them at all — the frame's independent blocks have implied
// raw sizes. Open reuses the reader and its block scratch for another
// image; as with ChunkReader, the payloads alias the latest Open's input
// until Close or the next Open. Not safe for concurrent use.
type AppReader struct {
	// Image carries the identity and tail sections; nil unless Open was
	// asked to decode them. Image.AppState stays nil.
	Image *Image

	ms    multiSliceReader
	zr    *gzip.Reader // non-nil when the app state is one gzip stream
	lzr   *lzAppReader // &lz when it is one fast-lz frame
	lz    lzAppReader
	total int
}

// lzAppReader streams a fast-lz frame block by block: exactly one
// decoded block is resident, skipped blocks are never inflated.
type lzAppReader struct {
	ms        *multiSliceReader
	total     int     // raw frame size, from the frame header
	remaining int     // raw bytes not yet decoded into block
	block     []byte  // decoded, unread bytes of the current block
	blockBuf  *[]byte // decode target from lzBlockPool, reused across blocks
	scratch   []byte  // compressed payload staging, reused across blocks
	// hdr receives the frame header, then each block's: a local would
	// escape through io.ReadFull's io.Reader.
	hdr [lzFrameHdr]byte
}

// release returns the decode target to its pool.
func (r *lzAppReader) release() {
	if r.blockBuf != nil {
		lzBlockPool.Put(r.blockBuf)
		r.blockBuf, r.block = nil, nil
	}
}

// open reads a frame header from ms, keeping earlier frames' scratch.
func (r *lzAppReader) open(ms *multiSliceReader) error {
	r.ms = ms
	if _, err := io.ReadFull(ms, r.hdr[:]); err != nil {
		return err
	}
	total, err := lzFrameSize(r.hdr[:])
	if err != nil {
		return err
	}
	r.total, r.remaining = total, total
	return nil
}

// readBlockHeader consumes the next block's 4-byte header.
func (r *lzAppReader) readBlockHeader() (size int, raw bool, err error) {
	if _, err := io.ReadFull(r.ms, r.hdr[:4]); err != nil {
		return 0, false, err
	}
	h := binary.LittleEndian.Uint32(r.hdr[:4])
	return int(h &^ lzRawBit), h&lzRawBit != 0, nil
}

// nextBlock decodes the next block; the caller has drained the current
// one. The raw size is implied by the frame position.
func (r *lzAppReader) nextBlock() error {
	want := min(lzBlockSize, r.remaining)
	size, stored, err := r.readBlockHeader()
	if err != nil {
		return err
	}
	if cap(r.scratch) < size {
		r.scratch = make([]byte, size)
	}
	buf := r.scratch[:size]
	if _, err := io.ReadFull(r.ms, buf); err != nil {
		return err
	}
	if stored {
		if size != want {
			return fmt.Errorf("stored block is %d bytes, want %d", size, want)
		}
		r.block = buf
	} else {
		if r.blockBuf == nil {
			r.blockBuf = lzBlockPool.Get().(*[]byte)
		}
		out, err := lzDecompressBlock((*r.blockBuf)[:0], buf, want)
		if err != nil {
			return err
		}
		if len(out) != want {
			return fmt.Errorf("block inflated to %d bytes, want %d", len(out), want)
		}
		*r.blockBuf, r.block = out, out
	}
	r.remaining -= want
	return nil
}

func (r *lzAppReader) Read(p []byte) (int, error) {
	for len(r.block) == 0 {
		if r.remaining == 0 {
			if !r.ms.empty() {
				return 0, fmt.Errorf("data after the frame's last block")
			}
			return 0, io.EOF
		}
		if err := r.nextBlock(); err != nil {
			return 0, err
		}
	}
	k := copy(p, r.block)
	r.block = r.block[k:]
	return k, nil
}

// skip discards n raw bytes; blocks it spans entirely are passed over
// compressed.
func (r *lzAppReader) skip(n int) error {
	for n > 0 {
		if len(r.block) > 0 {
			k := min(n, len(r.block))
			r.block = r.block[k:]
			n -= k
			continue
		}
		if r.remaining == 0 {
			return io.ErrUnexpectedEOF
		}
		if blockRaw := min(lzBlockSize, r.remaining); n >= blockRaw {
			size, _, err := r.readBlockHeader()
			if err != nil {
				return err
			}
			if err := r.ms.skip(size); err != nil {
				return err
			}
			r.remaining -= blockRaw
			n -= blockRaw
			continue
		}
		if err := r.nextBlock(); err != nil {
			return err
		}
	}
	return nil
}

// OpenAppState opens a full image in a new AppReader (see Open).
func OpenAppState(data []byte, decodeTail bool) (*AppReader, error) {
	r := &AppReader{}
	if err := r.Open(data, decodeTail); err != nil {
		return nil, err
	}
	return r, nil
}

// Open drops what r held, walks a full v3 image's sections —
// frame-checking each — and positions r at the start of its application
// state. decodeTail also decodes the common sections into a new Image,
// as ChunkReader.Open does; without it they are frame-checked and
// skipped. Delta images are rejected with ErrDeltaImage.
func (r *AppReader) Open(data []byte, decodeTail bool) error {
	r.Close()
	r.ms, r.total = multiSliceReader{parts: r.ms.parts[:0]}, 0
	if decodeTail {
		r.Image = &Image{}
	}
	flags, err := walkSections(data, false, r.Image, func(tag uint32, payload []byte) error {
		if tag != secApp {
			return fmt.Errorf("ckptimg: unknown section tag %#x (%w)", tag, ErrCorrupt)
		}
		r.ms.parts = append(r.ms.parts, payload)
		r.total += len(payload)
		return nil
	})
	if err != nil {
		return err
	}
	switch {
	case flags&FlagGzip != 0:
		zr, err := getGzipReader(&r.ms)
		if err != nil {
			return fmt.Errorf("ckptimg: decompressing app state (%w): %w", ErrCorrupt, err)
		}
		r.zr = zr
		r.total = -1
	case flags&FlagLZ != 0:
		if err := r.lz.open(&r.ms); err != nil {
			return fmt.Errorf("ckptimg: decompressing app state (%w): %w", ErrCorrupt, err)
		}
		r.lzr, r.total = &r.lz, r.lz.total
	}
	return nil
}

// Compressed reports whether the app state travels as one compressed
// stream (gzip or fast-lz).
func (r *AppReader) Compressed() bool { return r.zr != nil || r.lzr != nil }

// Total reports the raw application-state length, or -1 on a gzip
// image (the gzip stream reveals it only at EOF; a fast-lz frame
// declares it up front).
func (r *AppReader) Total() int { return r.total }

// Read returns the next raw application-state bytes.
func (r *AppReader) Read(p []byte) (int, error) {
	switch {
	case r.zr != nil:
		return r.zr.Read(p)
	case r.lzr != nil:
		return r.lzr.Read(p)
	}
	return r.ms.Read(p)
}

// Skip discards the next n raw bytes: free on an uncompressed image,
// one inflate-and-discard pass on a gzip image, and block-granular on
// a fast-lz image (fully spanned blocks stay compressed).
func (r *AppReader) Skip(n int) error {
	switch {
	case r.zr != nil:
		_, err := io.CopyN(io.Discard, r.zr, int64(n))
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	case r.lzr != nil:
		return r.lzr.skip(n)
	}
	return r.ms.skip(n)
}

// Close returns the pooled gzip reader or fast-lz block buffer and drops
// the payloads and Image; the reader may be opened again.
func (r *AppReader) Close() {
	if r.zr != nil {
		putGzipReader(r.zr)
		r.zr = nil
	}
	r.lz.release()
	clear(r.ms.parts)
	r.lzr, r.Image = nil, nil
}
