package ckptimg

import (
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Verify checks an encoded image's integrity without assembling or
// decompressing app state: the header, every section frame's CRC, the
// clean-end marker, and the no-trailing-bytes rule. It accepts full
// and delta v3 images. The walk touches each byte exactly once and
// allocates nothing — this is the scrubber's verify-only reader.
//
// Every failure wraps ErrCorrupt — a rotted magic, a header of another
// version and a section tag this build does not write (the gob-coded
// tags of early v3 builds, STOR among them) included: the store holds
// nothing but v3 images, so bytes that are not one are damage.
func Verify(data []byte) error {
	delta, sawDeltaMeta := IsDelta(data), false
	_, err := walkSections(data, delta, nil, func(tag uint32, _ []byte) error {
		switch {
		case tag == secApp:
		case tag != secDeltaMet2 && tag != secDeltaChunk:
			return fmt.Errorf("ckptimg: unknown section tag %#x (%w)", tag, ErrCorrupt)
		case !delta:
			return fmt.Errorf("ckptimg: delta section %#x in a full image (%w)", tag, ErrCorrupt)
		}
		sawDeltaMeta = sawDeltaMeta || tag == secDeltaMet2
		return nil
	})
	if err == nil && delta && !sawDeltaMeta {
		err = fmt.Errorf("ckptimg: delta image has no linkage section (%w)", ErrCorrupt)
	}
	return err
}

// Indexed is what the commit path learns from validating one encoded
// image without keeping any of it.
type Indexed struct {
	// Step is the boundary the image was taken at.
	Step int
	// ParentGen is the generation a delta image was encoded against;
	// zero for a full image.
	ParentGen int
	// Index is the chunk-CRC index of the image's application state.
	Index ChunkIndex
}

// chunkScratchPool recycles the chunk-sized scratch IndexFull and
// IndexDelta read application state through, so a commit validating
// every rank of every generation reuses one buffer instead of
// allocating one per image.
var chunkScratchPool sync.Pool // of *[]byte

// getChunkScratch returns a pooled scratch buffer of n bytes.
func getChunkScratch(n int) *[]byte {
	p, _ := chunkScratchPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// putChunkScratch returns a scratch buffer to the pool. The caller must
// not use it afterwards.
func putChunkScratch(p *[]byte) {
	if cap(*p) <= maxPooledBuf {
		chunkScratchPool.Put(p)
	}
}

// IndexFull validates a full image as deeply as Decode does — header,
// every section frame's CRC, the common sections decode, the
// application state inflates to the end of its stream and to its
// declared length, nothing follows the end marker — and indexes its
// application state at chunkBytes (<= 0 selects AppChunk). The state
// passes through one pooled chunk-sized scratch buffer and is never
// assembled. Delta images return ErrDeltaImage.
func IndexFull(data []byte, chunkBytes int) (Indexed, error) {
	r, err := OpenAppState(data, true)
	if err != nil {
		return Indexed{}, err
	}
	defer r.Close()
	if chunkBytes <= 0 {
		chunkBytes = AppChunk
	}
	x := ChunkIndex{ChunkBytes: chunkBytes}
	size := chunkBytes
	if total := r.Total(); total >= 0 {
		// One byte even for an empty state: the read that finds the end
		// of the stream is the one that checks nothing follows it.
		size = max(1, min(chunkBytes, total))
		x.CRCs = make([]uint32, 0, (total+chunkBytes-1)/chunkBytes)
	}
	sp := getChunkScratch(size)
	defer putChunkScratch(sp)
	scratch := *sp
	for {
		n, err := io.ReadFull(r, scratch)
		if n > 0 {
			x.CRCs = append(x.CRCs, crc32.ChecksumIEEE(scratch[:n]))
			x.Total += n
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return Indexed{}, fmt.Errorf("ckptimg: decompressing app state (%w): %w", ErrCorrupt, err)
		}
	}
	if x.Total == 0 {
		x.CRCs = nil // an empty state indexes to zero chunks
	}
	if total := r.Total(); total >= 0 && total != x.Total {
		return Indexed{}, fmt.Errorf("ckptimg: app state is %d bytes, its stream declares %d (%w)", x.Total, total, ErrCorrupt)
	}
	return Indexed{Step: r.Image.Step, Index: x}, nil
}

// IndexDelta validates a delta image as deeply as a whole decode would
// — everything OpenDelta checks (frames, linkage, one record per chunk,
// the common sections decode), then every changed chunk's content
// against its recorded CRC and length — and returns the chunk index the
// image implies. Uncompressed chunks are checked where they lie;
// compressed ones inflate one at a time into a single pooled
// chunk-sized scratch buffer.
func IndexDelta(data []byte) (Indexed, error) {
	r, err := OpenDelta(data, true)
	if err != nil {
		return Indexed{}, err
	}
	defer r.Close()
	x := ChunkIndex{ChunkBytes: r.ChunkBytes, Total: r.NewLen}
	if n := r.NumChunks(); n > 0 {
		x.CRCs = make([]uint32, n)
	}
	var scratch []byte
	if r.compressed && len(x.CRCs) > 0 {
		sp := getChunkScratch(r.ChunkLen(0))
		defer putChunkScratch(sp)
		scratch = *sp
	}
	for i := range x.CRCs {
		ch := r.chunks[i]
		x.CRCs[i] = ch.CRC
		switch {
		case !ch.Changed:
		case r.compressed:
			if err := r.InflateChunk(i, scratch[:r.ChunkLen(i)]); err != nil {
				return Indexed{}, err
			}
		case len(ch.Payload) != r.ChunkLen(i):
			return Indexed{}, fmt.Errorf("ckptimg: delta chunk %d is %d bytes, want %d (%w)", i, len(ch.Payload), r.ChunkLen(i), ErrCorrupt)
		case crc32.ChecksumIEEE(ch.Payload) != ch.CRC:
			return Indexed{}, fmt.Errorf("ckptimg: delta chunk %d content checksum mismatch (%w)", i, ErrCorrupt)
		}
	}
	return Indexed{Step: r.Image.Step, ParentGen: r.ParentGen, Index: x}, nil
}
