package ckptimg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// This file is the fast-lz codec: a pure-Go LZ-class compressor
// (greedy hash-table match finding + literal runs, an lz4-style token
// stream) selected via TierFastLZ. It exists because gzip — even at
// BestSpeed — pays Huffman coding on the hot commit path, and the
// checkpoint cut only needs cheap redundancy removal: the cross-rank
// dedup layer of the checkpoint store and the delta tier already
// capture the long-range redundancy, so the codec's job is raw
// throughput at an acceptable ratio.
//
// Frame layout (everything little-endian):
//
//	magic "MLZ1" | u64 raw total | block*
//	block: u32 header (bit 31: stored raw; low 31 bits: payload size) | payload
//
// Each block encodes min(lzBlockSize, remaining) raw bytes
// independently, so a reader can skip whole blocks without inflating
// them (the raw size of every block is implied by its position). A
// block whose compressed form would not shrink is stored raw.
//
// Block payload is a sequence of lz4-style records:
//
//	token (lit len high nibble, match len-4 low nibble; 15 = extended
//	by 255-continuation bytes) | lit-len ext | literals |
//	u16 offset | match-len ext
//
// The final record of a block carries literals only — the payload
// simply ends after them. Offsets stay within the block, so 16 bits
// always suffice.

const (
	lzBlockSize = 64 << 10
	lzHashLog   = 13
	lzMinMatch  = 4
	lzRawBit    = 1 << 31
	lzFrameHdr  = 12
)

var lzMagic = [4]byte{'M', 'L', 'Z', '1'}

// lzBufPool recycles frame-compression scratch across images; the
// gzip tiers have their writer pools, this is the lz equivalent.
var lzBufPool = sync.Pool{New: func() any {
	s := make([]byte, 0, 256<<10)
	return &s
}}

func getLZBuf() *[]byte  { return lzBufPool.Get().(*[]byte) }
func putLZBuf(s *[]byte) { lzBufPool.Put(s) }

// lzBlockPool recycles the streaming reader's decoded-block buffers, so
// readers opened one after another (a restart resolving rank after rank,
// a scrub) share one instead of each allocating its own.
var lzBlockPool = sync.Pool{New: func() any {
	s := make([]byte, 0, lzBlockSize)
	return &s
}}

// lzHash maps a 4-byte load to a table slot.
func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashLog)
}

// lzAppendLen appends v as 255-continuation bytes.
func lzAppendLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// lzEmitSeq appends one literal-run + match record.
func lzEmitSeq(dst, lits []byte, offset, mlen int) []byte {
	ll, ml := len(lits), mlen-lzMinMatch
	token := byte(15) << 4
	if ll < 15 {
		token = byte(ll) << 4
	}
	if ml < 15 {
		token |= byte(ml)
	} else {
		token |= 15
	}
	dst = append(dst, token)
	if ll >= 15 {
		dst = lzAppendLen(dst, ll-15)
	}
	dst = append(dst, lits...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lzAppendLen(dst, ml-15)
	}
	return dst
}

// lzEmitTail appends the final literals-only record.
func lzEmitTail(dst, lits []byte) []byte {
	ll := len(lits)
	token := byte(15) << 4
	if ll < 15 {
		token = byte(ll) << 4
	}
	dst = append(dst, token)
	if ll >= 15 {
		dst = lzAppendLen(dst, ll-15)
	}
	return append(dst, lits...)
}

// lzCompressBlock appends src's record stream to dst. The table is
// caller-owned so one zero-initialization serves every block of a
// frame: entries store the frame-absolute position + 1 (0 = empty),
// and base is this block's frame offset. A stale entry from an
// earlier block decodes to a negative in-block position (blocks are
// lzBlockSize apart and in-block positions are smaller than that), so
// it reads as a miss without any per-block clear.
func lzCompressBlock(dst, src []byte, base int, table *[1 << lzHashLog]int32) []byte {
	limit := len(src) - lzMinMatch
	anchor, pos := 0, 0
	for {
		// Match search with lz4-style acceleration: every 64 misses the
		// stride grows by one byte, so incompressible regions are crossed
		// at far better than one probe per byte.
		acc := 1 << 6
		cand := -1
		for {
			if pos > limit {
				return lzEmitTail(dst, src[anchor:])
			}
			cur := binary.LittleEndian.Uint32(src[pos:])
			h := lzHash(cur)
			cand = int(table[h]) - 1 - base
			table[h] = int32(base + pos + 1)
			if cand >= 0 && binary.LittleEndian.Uint32(src[cand:]) == cur {
				break
			}
			pos += acc >> 6
			acc++
		}
		// Extend the match in bulk: on checkpoint state the matches are
		// long (zeroed pages, repeated structs), so this — not the probe
		// loop — is where the encoder lives. bytes.Equal rides the
		// runtime's vectorized memequal; comparing the two shifted
		// ranges directly is valid even when they overlap, because match
		// extension is a positional comparison, not a self-copy.
		mlen := lzMinMatch
		const ext = 1 << 10
		for pos+mlen+ext <= len(src) && bytes.Equal(src[cand+mlen:cand+mlen+ext], src[pos+mlen:pos+mlen+ext]) {
			mlen += ext
		}
		for pos+mlen+8 <= len(src) {
			diff := binary.LittleEndian.Uint64(src[cand+mlen:]) ^ binary.LittleEndian.Uint64(src[pos+mlen:])
			if diff != 0 {
				mlen += bits.TrailingZeros64(diff) >> 3
				break
			}
			mlen += 8
		}
		for pos+mlen < len(src) && src[cand+mlen] == src[pos+mlen] {
			mlen++
		}
		dst = lzEmitSeq(dst, src[anchor:pos], pos-cand, mlen)
		pos += mlen
		anchor = pos
	}
}

// lzReadLen consumes 255-continuation bytes, adding them to base.
func lzReadLen(src []byte, base int) (int, []byte, error) {
	for {
		if len(src) == 0 {
			return 0, nil, fmt.Errorf("truncated length")
		}
		b := src[0]
		src = src[1:]
		base += int(b)
		if b < 255 {
			return base, src, nil
		}
	}
}

// lzDecompressBlock appends one block's raw bytes to dst, never
// growing it past maxOut total bytes. Every length and offset is
// bounds-checked, so damaged payloads fail instead of misindexing.
func lzDecompressBlock(dst, src []byte, maxOut int) ([]byte, error) {
	for len(src) > 0 {
		token := src[0]
		src = src[1:]
		ll := int(token >> 4)
		if ll == 15 {
			var err error
			if ll, src, err = lzReadLen(src, ll); err != nil {
				return nil, err
			}
		}
		if ll > len(src) {
			return nil, fmt.Errorf("literal run past payload end")
		}
		if len(dst)+ll > maxOut {
			return nil, fmt.Errorf("output larger than declared size")
		}
		dst = append(dst, src[:ll]...)
		src = src[ll:]
		if len(src) == 0 {
			break // final literals-only record
		}
		if len(src) < 2 {
			return nil, fmt.Errorf("truncated match offset")
		}
		offset := int(binary.LittleEndian.Uint16(src))
		src = src[2:]
		ml := int(token & 15)
		if ml == 15 {
			var err error
			if ml, src, err = lzReadLen(src, ml); err != nil {
				return nil, err
			}
		}
		ml += lzMinMatch
		if offset == 0 || offset > len(dst) {
			return nil, fmt.Errorf("match offset %d outside window", offset)
		}
		if len(dst)+ml > maxOut {
			return nil, fmt.Errorf("output larger than declared size")
		}
		if offset >= ml {
			// Disjoint source and destination: one bulk copy.
			start := len(dst) - offset
			dst = append(dst, dst[start:start+ml]...)
		} else {
			// Overlapping copy (offset < length): the run replicates the
			// last offset bytes. Grow in place — the maxOut check above
			// plus the callers' exact-capacity buffers guarantee room —
			// and double the copied span each pass, so a 4 KB zero run
			// costs ~12 copies instead of 4096 appends.
			n := len(dst)
			dst = dst[:n+ml]
			for written := 0; written < ml; {
				written += copy(dst[n+written:n+ml], dst[n-offset:n+written])
			}
		}
	}
	return dst, nil
}

// lzFrameCompress appends the fast-lz frame of src to dst.
func lzFrameCompress(dst, src []byte) []byte {
	var hdr [lzFrameHdr]byte
	copy(hdr[:4], lzMagic[:])
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(src)))
	dst = append(dst, hdr[:]...)
	var table [1 << lzHashLog]int32
	for off := 0; off < len(src); off += lzBlockSize {
		blk := src[off:min(off+lzBlockSize, len(src))]
		mark := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = lzCompressBlock(dst, blk, off, &table)
		if comp := len(dst) - mark - 4; comp >= len(blk) {
			// The records did not shrink the block; store it raw.
			dst = append(dst[:mark+4], blk...)
			binary.LittleEndian.PutUint32(dst[mark:], uint32(len(blk))|lzRawBit)
		} else {
			binary.LittleEndian.PutUint32(dst[mark:], uint32(comp))
		}
	}
	return dst
}

// lzFrameSize parses a frame header and returns the raw total.
func lzFrameSize(data []byte) (int, error) {
	if len(data) < lzFrameHdr || string(data[:4]) != string(lzMagic[:]) {
		return 0, fmt.Errorf("not a fast-lz frame")
	}
	total := binary.LittleEndian.Uint64(data[4:12])
	if total > maxSection {
		return 0, fmt.Errorf("frame claims %d raw bytes", total)
	}
	return int(total), nil
}

// lzFrameBlocks inflates every block of a frame, appending to dst and
// never growing it past total bytes.
func lzFrameBlocks(dst, data []byte, total int) ([]byte, error) {
	off := lzFrameHdr
	for off < len(data) {
		if off+4 > len(data) {
			return nil, fmt.Errorf("truncated block header")
		}
		h := binary.LittleEndian.Uint32(data[off:])
		off += 4
		n := int(h &^ lzRawBit)
		if n > len(data)-off {
			return nil, fmt.Errorf("block payload past frame end")
		}
		blk := data[off : off+n]
		off += n
		if h&lzRawBit != 0 {
			if len(dst)+n > total {
				return nil, fmt.Errorf("output larger than declared size")
			}
			dst = append(dst, blk...)
		} else {
			var err error
			if dst, err = lzDecompressBlock(dst, blk, total); err != nil {
				return nil, err
			}
		}
	}
	if len(dst) != total {
		return nil, fmt.Errorf("frame inflated to %d bytes, declared %d", len(dst), total)
	}
	return dst, nil
}

// lzFrameDecompress inflates a whole frame into dst's backing array,
// or into a fresh exact-size buffer when dst is too small.
func lzFrameDecompress(dst, data []byte) ([]byte, error) {
	total, err := lzFrameSize(data)
	if err != nil {
		return nil, err
	}
	return lzFrameBlocks(sized(dst, total)[:0], data, total)
}

// lzFrameDecompressInto inflates a frame into dst, which must be
// exactly the frame's declared raw size. The bound checks in
// lzFrameBlocks keep every append within dst's existing capacity, so
// the bytes land in place with no extra buffer.
func lzFrameDecompressInto(dst, data []byte) error {
	total, err := lzFrameSize(data)
	if err != nil {
		return err
	}
	if total != len(dst) {
		return fmt.Errorf("frame declares %d raw bytes, want %d", total, len(dst))
	}
	_, err = lzFrameBlocks(dst[:0], data, total)
	return err
}
