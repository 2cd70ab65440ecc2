package ckptimg

import (
	"fmt"
	"hash/crc32"
)

// The whole-link delta decoder: every changed chunk of a delta image
// inflated up front, the parent's state applied whole. Restart resolves
// chains chunk by chunk through OpenDelta instead (the checkpoint
// store's newest-wins resolver); this decoder is the independent
// reference the chunk-level readers and the commit-time validators are
// held to.

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

// DecodeDelta validates and deserializes a delta image, inflating every
// changed chunk. Uncompressed chunk payloads alias data (see Delta);
// everything else is copied. It is the chunk-level streaming decoder
// (OpenDelta) plus an inflate pass.
func DecodeDelta(data []byte) (*Delta, error) {
	if flags, err := parseHeader(data); err != nil {
		return nil, err
	} else if flags&FlagDelta == 0 {
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
			if r.compressed {
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
