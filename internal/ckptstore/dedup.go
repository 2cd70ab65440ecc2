package ckptstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"manasim/internal/ckptimg"
)

// This file is the content-addressed dedup tier of the store: with
// Options.Dedup set, Commit no longer writes rank images verbatim.
// Each image is split into segments aligned on its section frames
// (ckptimg.SplitDedupSegments), every segment is keyed by
// (CRC-32, length, content hash) into a blob namespace shared across
// ranks AND generations, and the rank key stores a small recipe — the
// ordered list of blob keys that reassemble the exact original bytes.
// A segment two ranks share (hpcg's static stencil matrix, identical
// compressed chunks, common metadata runs) is stored once; a segment a
// later generation re-produces references the existing blob for free.
//
// Ownership and lifecycle:
//
//   - A blob is owned by the store's refcount table (Store.blobRefs):
//     one reference per recipe that lists it. Recipes, plans and the
//     table name blobs by blobID; the text key is formatted only for a
//     backend call or a report. Commit increments
//     references for the new generation's recipes before the manifest
//     flips; a failed commit decrements them again and deletes only
//     the blobs that commit introduced.
//   - Retention and rollback never delete a blob another live recipe
//     references: deletion happens exactly when a blob's refcount
//     reaches zero. Pruning deletes the recipe key FIRST and only then
//     decrements — a retried prune finds the recipe missing and skips
//     it, so a partially failed prune can never double-decrement.
//   - Refcounts are derived state: Open rebuilds them by reading every
//     surviving recipe, then deletes blob keys no recipe references.
//     A crash mid-commit or mid-prune therefore self-heals — leaked
//     blobs are collected at the next Open, and a blob can never be
//     deleted while a surviving recipe lists it.

// blobPrefix namespaces content-addressed blobs; keys keep the store's
// at-most-one-'/' shape.
const blobPrefix = "blob/"

// blobID is what a blob key names a segment by: its CRC-32, its
// length, and the leading 128 bits of its SHA-256. The CRC and length
// ride along so readers can verify a fetched blob cheaply without
// recomputing the hash.
type blobID struct {
	crc  uint32
	size uint64
	sum  [16]byte
}

// matches reports whether seg has the CRC and length id names: the
// cheap check of a fetched blob.
func (id blobID) matches(seg []byte) bool {
	return uint64(len(seg)) == id.size && crc32.ChecksumIEEE(seg) == id.crc
}

// idOf computes a segment's blobID.
func idOf(seg []byte) blobID {
	sum := sha256.Sum256(seg)
	id := blobID{crc: crc32.ChecksumIEEE(seg), size: uint64(len(seg))}
	copy(id.sum[:], sum[:16])
	return id
}

// key formats the backend key of a blob — "blob/<crc %08x>-<length>-
// <hash %x>" — without fmt: the one blob key formatter, called only
// where a key leaves the store's tables (a backend call, a report).
func (id blobID) key() string {
	var b [len(blobPrefix) + 8 + 1 + 20 + 1 + 32]byte
	k := append(b[:0], blobPrefix...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], id.crc)
	k = hex.AppendEncode(k, crc[:])
	k = append(k, '-')
	k = strconv.AppendUint(k, id.size, 10)
	k = append(k, '-')
	k = hex.AppendEncode(k, id.sum[:])
	return string(k)
}

// parseBlobID recovers the blobID a blob key names. Only the key the
// id formats back to is accepted, so one blob has one key.
func parseBlobID(k string) (blobID, error) {
	rest, ok := strings.CutPrefix(k, blobPrefix)
	if !ok {
		return blobID{}, fmt.Errorf("ckptstore: %q is not a blob key", k)
	}
	var id blobID
	parts := strings.SplitN(rest, "-", 3)
	if len(parts) == 3 {
		crc, cerr := strconv.ParseUint(parts[0], 16, 32)
		size, serr := strconv.ParseUint(parts[1], 10, 64)
		sum, herr := hex.DecodeString(parts[2])
		if cerr == nil && serr == nil && herr == nil && len(sum) == len(id.sum) {
			id.crc, id.size = uint32(crc), size
			copy(id.sum[:], sum)
			if id.key() == k {
				return id, nil
			}
		}
	}
	return blobID{}, fmt.Errorf("ckptstore: malformed blob key %q", k)
}

// recipeMagic leads every recipe blob; it cannot collide with image
// payloads, which lead with ckptimg.Magic ("MANACKPT"). Recipes of
// earlier builds ("MANARCP1", one text key per segment) are refused.
var recipeMagic = []byte("MANARCP2")

// minSegmentBytes is the smallest encoding of one recipe segment: a
// 4-byte CRC, a one-byte length and the 16-byte hash prefix.
const minSegmentBytes = 4 + 1 + len(blobID{}.sum)

// encodeRecipe serializes a rank's reassembly recipe: the original
// image length and the ordered segments whose blobs concatenate to it,
// each as its binary blobID (CRC-32, uvarint length, hash prefix).
func encodeRecipe(total int, ids []blobID) []byte {
	out := make([]byte, 0, len(recipeMagic)+2*binary.MaxVarintLen64+len(ids)*(minSegmentBytes+binary.MaxVarintLen64))
	out = append(out, recipeMagic...)
	out = binary.AppendUvarint(out, uint64(total))
	out = binary.AppendUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint32(out, id.crc)
		out = binary.AppendUvarint(out, id.size)
		out = append(out, id.sum[:]...)
	}
	return out
}

// errTruncatedRecipe reports a recipe that ends inside a field.
var errTruncatedRecipe = fmt.Errorf("ckptstore: truncated recipe (%w)", ckptimg.ErrCorrupt)

// decodeRecipe parses a recipe blob into the image length and the ids
// of its segments.
func decodeRecipe(data []byte) (total int, ids []blobID, err error) {
	if !bytes.HasPrefix(data, recipeMagic) {
		return 0, nil, fmt.Errorf("ckptstore: not a recipe blob (%w)", ckptimg.ErrCorrupt)
	}
	rest := data[len(recipeMagic):]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, errTruncatedRecipe
		}
		rest = rest[n:]
		return v, nil
	}
	t, err := readUvarint()
	if err != nil {
		return 0, nil, err
	}
	if t > maxImageBytes {
		return 0, nil, fmt.Errorf("ckptstore: recipe claims %d bytes (%w)", t, ckptimg.ErrCorrupt)
	}
	nk, err := readUvarint()
	if err != nil {
		return 0, nil, err
	}
	if nk > uint64(len(rest)/minSegmentBytes) {
		return 0, nil, fmt.Errorf("ckptstore: recipe claims %d segments in %d bytes (%w)", nk, len(rest), ckptimg.ErrCorrupt)
	}
	ids = make([]blobID, 0, nk)
	for i := uint64(0); i < nk; i++ {
		var id blobID
		if len(rest) < 4 {
			return 0, nil, errTruncatedRecipe
		}
		id.crc = binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if id.size, err = readUvarint(); err != nil {
			return 0, nil, err
		}
		if len(rest) < len(id.sum) {
			return 0, nil, errTruncatedRecipe
		}
		rest = rest[copy(id.sum[:], rest):]
		ids = append(ids, id)
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("ckptstore: trailing bytes after recipe (%w)", ckptimg.ErrCorrupt)
	}
	return int(t), ids, nil
}

// maxImageBytes bounds a recipe's claimed reassembled size.
const maxImageBytes = 1 << 40

// blobPut is one new blob a commit must persist.
type blobPut struct {
	id   blobID
	data []byte
}

// dedupPlan is the segmentation outcome of one commit: everything the
// dedup Put phase and its rollback need.
type dedupPlan struct {
	recipes  [][]byte       // per-rank recipe blobs for the rank keys
	newBlobs []blobPut      // blobs first referenced by this commit, ordered
	added    map[blobID]int // refcount increments this commit will apply
	unique   []int64        // per-rank new-unique-byte attribution
}

// planDedup segments every rank image in rank order, so blob ordering,
// refcounts, and the per-rank charge attribution are deterministic: the
// lowest rank that references a new blob pays for its bytes, every
// later reference — same commit or any later one — is free.
func (s *Store) planDedup(images [][]byte) *dedupPlan {
	p := &dedupPlan{
		added:  make(map[blobID]int),
		unique: make([]int64, s.n),
	}
	for r, data := range images {
		segs := ckptimg.SplitDedupSegments(data)
		ids := make([]blobID, len(segs))
		for i, seg := range segs {
			id := idOf(seg)
			ids[i] = id
			// A blob neither live nor already planned is new.
			if s.blobRefs[id] == 0 && p.added[id] == 0 {
				// The segment is a sub-slice of the image: the store
				// keeps an exact copy, never the whole image behind it.
				p.newBlobs = append(p.newBlobs, blobPut{id: id, data: exactCopy(seg)})
				p.unique[r] += int64(len(seg))
			}
			p.added[id]++
		}
		recipe := encodeRecipe(len(data), ids)
		p.recipes = append(p.recipes, recipe)
		p.unique[r] += int64(len(recipe))
	}
	return p
}

// putDedup writes a plan's new blobs, then the generation's recipes
// under its rank keys, in order, stopping at the first failure.
func (s *Store) putDedup(keys []string, p *dedupPlan) error {
	for _, nb := range p.newBlobs {
		if err := s.bPut(nb.id.key(), nb.data); err != nil {
			return err
		}
	}
	for r, recipe := range p.recipes {
		if err := s.bPut(keys[r], recipe); err != nil {
			return err
		}
	}
	return nil
}

// applyRefs merges a commit's refcount increments into the live table.
func (s *Store) applyRefs(added map[blobID]int) {
	for k, d := range added {
		s.blobRefs[k] += d
	}
}

// unapplyRefs reverts applyRefs; entries falling to zero are removed.
func (s *Store) unapplyRefs(added map[blobID]int) {
	for k, d := range added {
		if s.blobRefs[k] -= d; s.blobRefs[k] <= 0 {
			delete(s.blobRefs, k)
		}
	}
}

// discardDedup removes what a failed dedup commit may have written:
// the generation's recipe keys and the blobs this commit introduced —
// never blobs that predate it, which other live recipes reference.
// Delete failures aggregate; deleting a missing key is not an error,
// so the discard is idempotent.
func (s *Store) discardDedup(seq int, keys []string, newBlobs []blobPut) error {
	var errs []error
	for r, k := range keys {
		if err := s.b.Delete(k); err != nil {
			errs = append(errs, fmt.Errorf("ckptstore: discarding generation %d rank %d recipe: %w", seq, r, err))
		}
	}
	for _, nb := range newBlobs {
		k := nb.id.key()
		if err := s.b.Delete(k); err != nil {
			errs = append(errs, fmt.Errorf("ckptstore: discarding blob %q: %w", k, err))
		}
	}
	return errors.Join(errs...)
}

// pruneRecipe retires one rank's recipe during a prune: delete the
// recipe key first, then decrement its blobs' refcounts and delete the
// ones no surviving recipe references. A missing recipe was already
// pruned (or never written) and is skipped — that, plus the
// delete-before-decrement order, makes a retried prune idempotent: a
// recipe's references are dropped exactly once. A blob whose delete
// fails after its refcount reached zero leaks until the next Open
// rebuild collects it.
func (s *Store) pruneRecipe(k string) error {
	data, err := s.b.Get(k)
	if err != nil {
		return nil // already pruned: idempotent
	}
	_, ids, err := decodeRecipe(data)
	if err != nil {
		return fmt.Errorf("ckptstore: pruning %q: %w", k, err)
	}
	if err := s.b.Delete(k); err != nil {
		return fmt.Errorf("ckptstore: pruning %q: %w", k, err)
	}
	var errs []error
	for _, id := range ids {
		if s.blobRefs[id]--; s.blobRefs[id] <= 0 {
			delete(s.blobRefs, id)
			bk := id.key()
			if err := s.b.Delete(bk); err != nil {
				errs = append(errs, fmt.Errorf("ckptstore: pruning blob %q: %w", bk, err))
			}
		}
	}
	return errors.Join(errs...)
}

// assembleRecipe reassembles a rank image from its recipe, verifying
// each blob against the CRC and length its id carries.
//
// Every resolution failure — an undecodable recipe, a missing or
// key-contradicting blob, a reassembly length mismatch — is a typed
// *ChainLinkError naming the generation and rank, exactly like the
// plain chain walk's failures, so restart-fallback policies can match
// one error shape.
func (s *Store) assembleRecipe(seq, rank int, recipe []byte) ([]byte, error) {
	total, ids, err := decodeRecipe(recipe)
	if err != nil {
		return nil, &ChainLinkError{Gen: seq, Rank: rank, Err: err}
	}
	out := make([]byte, 0, total)
	for _, id := range ids {
		seg, err := s.bGet(id.key())
		if err != nil {
			return nil, &ChainLinkError{Gen: seq, Rank: rank, Err: err}
		}
		if !id.matches(seg) {
			return nil, &ChainLinkError{Gen: seq, Rank: rank,
				Err: fmt.Errorf("blob %q does not match its key (%w)", id.key(), ckptimg.ErrCorrupt)}
		}
		out = append(out, seg...)
	}
	if len(out) != total {
		return nil, &ChainLinkError{Gen: seq, Rank: rank,
			Err: fmt.Errorf("recipe reassembled %d bytes, want %d (%w)", len(out), total, ckptimg.ErrCorrupt)}
	}
	return out, nil
}

// rebuildRefs recomputes the refcount table from every surviving
// recipe — refcounts are derived state, so Open never trusts a
// possibly stale manifest for them — and deletes blob keys no recipe
// references (leftovers of a crash mid-commit or mid-prune).
func (s *Store) rebuildRefs(blobKeys []string) error {
	for seq := s.prunedTo; seq < len(s.gens); seq++ {
		for _, k := range s.keys[seq] {
			data, err := s.b.Get(k)
			if err != nil {
				continue // pruned by a crashed prune: its refs are gone too
			}
			if _, ids, err := decodeRecipe(data); err == nil {
				for _, id := range ids {
					s.blobRefs[id]++
				}
			}
		}
	}
	var errs []error
	for _, bk := range blobKeys {
		if id, err := parseBlobID(bk); err != nil || s.blobRefs[id] == 0 {
			if err := s.b.Delete(bk); err != nil {
				errs = append(errs, fmt.Errorf("ckptstore: pruning orphan blob %q: %w", bk, err))
			}
		}
	}
	return errors.Join(errs...)
}

// DedupStats summarizes the content-addressed blob table.
type DedupStats struct {
	// Blobs is the number of live unique blobs.
	Blobs int
	// StoredBytes is the payload bytes across live blobs — what the
	// backend actually holds for image data (recipes excluded; they are
	// a few dozen bytes per rank per generation).
	StoredBytes int64
	// LogicalBytes is the encoded image bytes across live (unpruned)
	// generations — what a non-dedup store would hold.
	LogicalBytes int64
	// SharedRefs counts references beyond each blob's first: the
	// cross-rank and cross-generation hits dedup collapsed.
	SharedRefs int
}

// Ratio reports LogicalBytes/StoredBytes (1 when empty): how many
// times over the blob table would have been written without dedup.
func (d DedupStats) Ratio() float64 {
	if d.StoredBytes == 0 {
		return 1
	}
	return float64(d.LogicalBytes) / float64(d.StoredBytes)
}

// DedupStats reports the blob table summary; zero when the store does
// not dedup.
func (s *Store) DedupStats() DedupStats {
	var d DedupStats
	for id, n := range s.blobRefs {
		d.Blobs++
		d.StoredBytes += int64(id.size)
		d.SharedRefs += n - 1
	}
	for i := s.prunedTo; i < len(s.gens); i++ {
		d.LogicalBytes += s.gens[i].Bytes
	}
	return d
}

// Dedup reports whether the store runs the content-addressed layer.
func (s *Store) Dedup() bool { return s.opts.Dedup }

// CommitCharge reports the bytes attributed to rank at the most recent
// commit: with dedup, the new unique blob bytes the rank introduced
// (plus its recipe); without, the rank's whole encoded image. The cost
// model charges this instead of the raw image size, so storing a chunk
// some other rank or generation already stored costs nothing.
func (s *Store) CommitCharge(rank int) int64 {
	if rank < 0 || rank >= len(s.lastUnique) {
		return 0
	}
	return s.lastUnique[rank]
}
