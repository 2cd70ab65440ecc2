package ckptimg

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// This file is the compression tier of the image codec: the knob that
// trades compression ratio against encode speed, plus the pooled codec
// state (gzip writers, gzip readers, scratch buffers) that keeps the
// hot checkpoint path from re-allocating a compressor per section.
//
// Tiers matter because checkpoints have two distinct lifetimes: hot
// generations written at high frequency (where encode speed gates the
// checkpoint cut) and archival bases kept for provenance (where ratio
// wins). The checkpoint store selects a tier per store via
// ckptstore.Options.CompressTier.

// CompressTier selects the flate effort of the gzip codec.
type CompressTier int

const (
	// TierBalanced is gzip.DefaultCompression: the historical default,
	// a middle ground between ratio and speed.
	TierBalanced CompressTier = iota
	// TierFast is flate BestSpeed — the fast tier for hot checkpoints,
	// trading ratio for encode throughput. Images written under it carry
	// FlagFastCompress.
	TierFast
	// TierMax is gzip.BestCompression — the archival tier for base
	// generations that are kept long-term.
	TierMax
	// TierFastLZ is the pure-Go LZ-class codec (lz.go): greedy
	// hash-table matching and literal runs in an lz4-style frame, no
	// Huffman pass. It trades ratio for raw encode throughput — the
	// tier for hot checkpoint cuts whose long-range redundancy the
	// store's dedup and delta layers already capture. Images written
	// under it carry FlagLZ instead of FlagGzip.
	TierFastLZ
)

// level maps the tier to a flate compression level.
func (t CompressTier) level() int {
	switch t {
	case TierFast:
		return gzip.BestSpeed
	case TierMax:
		return gzip.BestCompression
	default:
		return gzip.DefaultCompression
	}
}

// idx bounds the tier into the pool array; unknown values act balanced.
// TierFastLZ never reaches the gzip pools (its codec is lz.go), so the
// array stays sized to the gzip tiers.
func (t CompressTier) idx() int {
	if t < TierBalanced || t > TierMax {
		return int(TierBalanced)
	}
	return int(t)
}

// String renders the tier name accepted by ParseCompressTier.
func (t CompressTier) String() string {
	switch t {
	case TierFast:
		return "fast"
	case TierMax:
		return "max"
	case TierFastLZ:
		return "fast-lz"
	default:
		return "balanced"
	}
}

// ParseCompressTier parses a tier name. The empty string and "balanced"
// (or "default") select TierBalanced.
func ParseCompressTier(s string) (CompressTier, error) {
	switch s {
	case "", "balanced", "default":
		return TierBalanced, nil
	case "fast":
		return TierFast, nil
	case "max":
		return TierMax, nil
	case "fast-lz", "fastlz", "lz":
		return TierFastLZ, nil
	}
	return TierBalanced, fmt.Errorf("ckptimg: unknown compression tier %q (want fast, balanced, max, or fast-lz)", s)
}

// ---------------------------------------------------------------------
// pooled codec state
//
// Encoding one image touches a gzip writer per compressed section and a
// scratch buffer per binary section; decoding touches a gzip reader per
// compressed payload. All of them are Reset-able, so the pools below
// turn that churn into steady-state reuse. Pools are safe for
// concurrent use — callers may share one store across goroutines, and
// ranks encode their own images.

// maxPooledBuf bounds the capacity of scratch buffers returned to the
// pool, so one giant image does not pin its buffer forever.
const maxPooledBuf = 8 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBuf returns an empty pooled scratch buffer.
func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBuf returns a scratch buffer to the pool. The caller must not use
// any slice obtained from the buffer afterwards.
func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// gzipWriterPools holds one writer pool per tier: a gzip.Writer keeps
// its compression level across Reset, so writers of different tiers
// cannot share a pool.
var gzipWriterPools [int(TierMax) + 1]sync.Pool

// getGzipWriter returns a pooled gzip writer of the given tier,
// reset onto w.
func getGzipWriter(w io.Writer, tier CompressTier) *gzip.Writer {
	if zw, ok := gzipWriterPools[tier.idx()].Get().(*gzip.Writer); ok {
		zw.Reset(w)
		return zw
	}
	zw, err := gzip.NewWriterLevel(w, tier.level())
	if err != nil {
		// All tier levels are valid flate levels; this is unreachable.
		panic(fmt.Sprintf("ckptimg: gzip level for tier %v: %v", tier, err))
	}
	return zw
}

// putGzipWriter returns a writer to its tier's pool. The caller must
// have Closed (or Reset) it.
func putGzipWriter(tier CompressTier, zw *gzip.Writer) {
	gzipWriterPools[tier.idx()].Put(zw)
}

var gzipReaderPool sync.Pool

// getGzipReader returns a pooled gzip reader reset onto r.
func getGzipReader(r io.Reader) (*gzip.Reader, error) {
	if zr, ok := gzipReaderPool.Get().(*gzip.Reader); ok {
		if err := zr.Reset(r); err != nil {
			gzipReaderPool.Put(zr)
			return nil, err
		}
		return zr, nil
	}
	return gzip.NewReader(r)
}

// putGzipReader returns a reader to the pool.
func putGzipReader(zr *gzip.Reader) {
	gzipReaderPool.Put(zr)
}

// chunkInflater decompresses the many small per-chunk compressed
// streams of a delta image through one reader: the bytes.Reader and the
// pooled gzip.Reader are checked out once and reset per chunk, instead
// of a pool round-trip (and a fresh bytes.Reader) per chunk. With lz
// set (FlagLZ images) chunks are fast-lz frames instead, which carry
// their raw size and inflate in place. Zero value is ready; call
// release when done with the image. Not safe for concurrent use — each
// decode owns its own inflater.
type chunkInflater struct {
	lz bool
	br bytes.Reader
	zr *gzip.Reader
	// tail receives the read past a chunk's end that must find EOF; a
	// local would escape through gzip's reader.
	tail [1]byte
}

// inflateInto decompresses one chunk's compressed stream into dst,
// which must be exactly the chunk's uncompressed length; a stream that
// is shorter or longer is an error.
func (ci *chunkInflater) inflateInto(dst, data []byte) error {
	if ci.lz {
		return lzFrameDecompressInto(dst, data)
	}
	ci.br.Reset(data)
	if ci.zr == nil {
		zr, err := getGzipReader(&ci.br)
		if err != nil {
			return err
		}
		ci.zr = zr
	} else if err := ci.zr.Reset(&ci.br); err != nil {
		return err
	}
	if _, err := io.ReadFull(ci.zr, dst); err != nil {
		return err
	}
	if n, err := ci.zr.Read(ci.tail[:]); n != 0 || err != io.EOF {
		if err != nil && err != io.EOF {
			return err
		}
		return fmt.Errorf("chunk stream longer than its declared length")
	}
	return nil
}

// release returns the pooled reader and drops the last chunk's bytes;
// the inflater is reusable after.
func (ci *chunkInflater) release() {
	if ci.zr != nil {
		putGzipReader(ci.zr)
		ci.zr = nil
	}
	ci.br.Reset(nil)
}
