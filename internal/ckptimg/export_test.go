package ckptimg

import (
	"bytes"
	"hash/crc32"

	"manasim/internal/vid"
)

// StoreSection returns the payload of an encoded image's vid store
// section, or nil when the image has none or does not parse.
func StoreSection(data []byte) []byte { return sectionOf(data, secStore2) }

// CountersSection returns the payload of an encoded image's counters
// section, or nil when the image has none or does not parse.
func CountersSection(data []byte) []byte { return sectionOf(data, secCounters3) }

func sectionOf(data []byte, want uint32) []byte {
	if _, err := parseHeader(data); err != nil {
		return nil
	}
	c := &sectionCursor{data: data, off: 16}
	for c.rest() > 0 {
		tag, payload, err := c.next()
		if err != nil {
			return nil
		}
		if tag == want {
			return payload
		}
	}
	return nil
}

// DecodeCountersSection decodes one counters section payload of rank's
// image of an nranks-rank job.
func DecodeCountersSection(payload []byte, rank, nranks int) (Counters, error) {
	img := Image{Rank: rank, NRanks: nranks}
	err := decodeCounters3(&img, payload)
	return img.Counters, err
}

// EncodeCountersSection encodes rank's counter list as a counters
// section payload.
func EncodeCountersSection(rank int, c Counters) []byte {
	var b bytes.Buffer
	writeCountersSection(&b, rank, c)
	return b.Bytes()[16:] // past the section frame
}

// DecodeStoreSection decodes one vid store section payload.
func DecodeStoreSection(payload []byte) (vid.StoreSnapshot, error) {
	var img Image
	err := decodeStore2(&img, payload)
	return img.Store, err
}

// EncodeStoreSection encodes a snapshot as a vid store section payload.
func EncodeStoreSection(st *vid.StoreSnapshot) []byte {
	var b bytes.Buffer
	writeStoreSection(&b, st)
	return b.Bytes()[16:] // past the section frame
}

// Encode serializes the image in the current format with default
// options.
func Encode(img *Image) ([]byte, error) { return EncodeOpts(img, Options{}) }

// IndexAppState computes the chunk-CRC index of an application state,
// the reference the streaming indexers (IndexFull, IndexDelta) must
// match. chunkBytes <= 0 selects AppChunk. An empty state indexes to
// zero chunks.
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
