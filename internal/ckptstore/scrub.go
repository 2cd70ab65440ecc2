package ckptstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"manasim/internal/ckptimg"
)

// This file is the store's integrity subsystem. Scrub walks everything
// the manifest accounts for — generation keys, recipes, content blobs —
// and verifies each stored byte against its integrity record without
// ever inflating application state: plain images go through the
// verify-only section walk (ckptimg.Verify), dedup blobs are checked
// against the CRC and length their keys embed, recipes are decoded and
// cross-checked against their claimed totals. Findings are typed; what
// is recoverable is repaired in place (orphan deletion, refcount
// rebuild, blob re-derivation from an intact sharer), and generations
// with unrepairable damage are quarantined: still listed as metadata,
// but refusing to materialize until a later scrub finds them whole
// again.

// ErrQuarantined reports a generation scrub has quarantined: some of
// its bytes (or a chain ancestor's) contradict their integrity records
// and could not be repaired. Quarantined generations stay listed in
// Generations(), refuse to materialize, and restart fallback walks past
// them; a later scrub that finds the damage gone releases them.
var ErrQuarantined = errors.New("generation quarantined by scrub")

// FindingKind classifies one scrub finding.
type FindingKind uint8

const (
	// FindingCorruptBlob is stored bytes contradicting their integrity
	// record: a content blob failing its key's CRC or length, an
	// undecodable or self-inconsistent recipe, or an image failing its
	// section-CRC walk.
	FindingCorruptBlob FindingKind = iota + 1
	// FindingMissingBlob is a key a live generation references that the
	// backend no longer holds.
	FindingMissingBlob
	// FindingOrphanBlob is a backend key no live generation or recipe
	// accounts for — rollback or prune leftovers. Deleting it is the
	// repair.
	FindingOrphanBlob
	// FindingRefDrift is a content blob whose in-memory refcount
	// disagrees with a recount over the surviving recipes. Rebuilding
	// the table from the recount is the repair.
	FindingRefDrift
)

// String names the finding kind.
func (k FindingKind) String() string {
	switch k {
	case FindingCorruptBlob:
		return "corrupt-blob"
	case FindingMissingBlob:
		return "missing-blob"
	case FindingOrphanBlob:
		return "orphan-blob"
	case FindingRefDrift:
		return "refcount-drift"
	default:
		return "invalid"
	}
}

// ScrubFinding is one verified defect the scrub pass found.
type ScrubFinding struct {
	// Kind classifies the defect.
	Kind FindingKind
	// Key is the backend key the finding is about.
	Key string
	// Gen and Rank locate generation-scoped findings; both are -1 for
	// content blobs and orphans, which belong to no single generation.
	Gen, Rank int
	// Repaired reports the defect was fixed in place: the orphan
	// deleted, the refcount rebuilt, the blob re-derived from a sharer.
	Repaired bool
	// Err is the underlying verification or repair failure, when any.
	Err error
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Generations is the number of live (unpruned) generations walked.
	Generations int
	// BlobsChecked counts the stored payloads verified; BytesChecked
	// their total size.
	BlobsChecked int
	BytesChecked int64
	// Findings lists every defect, in deterministic order: the
	// generation walk (seq then rank ascending), content blobs (key
	// order), refcount drift (key order), orphans (key order).
	Findings []ScrubFinding
	// Repaired counts findings fixed in place.
	Repaired int
	// Quarantined and Released list the generations this pass newly
	// quarantined and released, ascending.
	Quarantined []int
	Released    []int
}

// Healthy reports a scrub that found nothing wrong.
func (r *ScrubReport) Healthy() bool { return len(r.Findings) == 0 }

// String renders a one-line summary.
func (r *ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d generations, %d blobs (%d bytes) verified, %d findings (%d repaired), %d quarantined, %d released",
		r.Generations, r.BlobsChecked, r.BytesChecked,
		len(r.Findings), r.Repaired, len(r.Quarantined), len(r.Released))
}

// found appends one finding and returns its index.
func (r *ScrubReport) found(kind FindingKind, key string, gen, rank int, err error) int {
	r.Findings = append(r.Findings, ScrubFinding{Kind: kind, Key: key, Gen: gen, Rank: rank, Err: err})
	return len(r.Findings) - 1
}

// Scrub verifies every stored byte the manifest accounts for, repairs
// what is recoverable, and quarantines generations with unrepairable
// damage. It never inflates application state: plain images go through
// the verify-only reader, dedup blobs through their keys' CRC+length.
//
// Scrub is meant to run offline (between service attempts, or via the
// scrub CLI), like every store operation on its caller's goroutine.
// The returned error covers infrastructure failures only
// (listing the backend, persisting the quarantine); defects are data,
// reported in the ScrubReport.
func (s *Store) Scrub() (*ScrubReport, error) {
	rep := &ScrubReport{}
	listed, err := s.b.List()
	if err != nil {
		return nil, fmt.Errorf("ckptstore: scrub listing backend: %w", err)
	}

	// Phase 1: walk every live generation's rank keys. Plain stores
	// verify the image bytes directly; dedup stores decode the recipe,
	// validate it against itself, and defer byte verification to the
	// content-blob pass.
	directBad := make(map[int]bool)     // generations with unrepairable key damage
	recount := make(map[blobID]int)     // content blob -> references from surviving recipes
	blobUsers := make(map[blobID][]int) // content blob -> generations referencing it
	var recipes [][]blobID              // blob ids of the intact recipes, walk order
	for seq := s.prunedTo; seq < len(s.gens); seq++ {
		rep.Generations++
		for r, k := range s.keys[seq] {
			data, err := s.bGet(k)
			if err != nil {
				rep.found(FindingMissingBlob, k, seq, r, err)
				directBad[seq] = true
				continue
			}
			if !s.opts.Dedup {
				rep.BlobsChecked++
				rep.BytesChecked += int64(len(data))
				if verr := ckptimg.Verify(data); verr != nil {
					rep.found(FindingCorruptBlob, k, seq, r, verr)
					directBad[seq] = true
				}
				continue
			}
			total, ids, derr := decodeRecipe(data)
			if derr != nil {
				rep.found(FindingCorruptBlob, k, seq, r, derr)
				directBad[seq] = true
				continue
			}
			var sum uint64
			for _, id := range ids {
				sum += id.size
			}
			if sum != uint64(total) {
				rep.found(FindingCorruptBlob, k, seq, r,
					fmt.Errorf("recipe claims %d bytes, segments sum to %d (%w)", total, sum, ckptimg.ErrCorrupt))
				directBad[seq] = true
				continue
			}
			for _, id := range ids {
				recount[id]++
				if u := blobUsers[id]; len(u) == 0 || u[len(u)-1] != seq {
					blobUsers[id] = append(u, seq)
				}
			}
			recipes = append(recipes, ids)
		}
	}

	// Phase 2: verify each referenced content blob exactly once against
	// the CRC and length its key embeds — with dedup, every stored image
	// byte is covered by exactly one such check. Damaged blobs then get
	// a re-derivation attempt from intact sharers.
	damaged := make(map[blobID]int) // blob -> finding index
	if s.opts.Dedup {
		for _, id := range byKey(recount) {
			bk := id.key()
			seg, gerr := s.bGet(bk)
			if gerr != nil {
				damaged[id] = rep.found(FindingMissingBlob, bk, -1, -1, gerr)
				continue
			}
			rep.BlobsChecked++
			rep.BytesChecked += int64(len(seg))
			if !id.matches(seg) {
				damaged[id] = rep.found(FindingCorruptBlob, bk, -1, -1,
					fmt.Errorf("blob %q does not match its key (%w)", bk, ckptimg.ErrCorrupt))
			}
		}
		s.repairFromDonors(rep, recipes, damaged)
	}

	// Phase 3: refcount drift. The recount over the surviving recipes is
	// the truth (refcounts are derived state, exactly as at Open);
	// rebuilding the table from it is the repair.
	if s.opts.Dedup {
		drift := make(map[blobID]bool)
		for id, n := range recount {
			if s.blobRefs[id] != n {
				drift[id] = true
			}
		}
		for id := range s.blobRefs {
			if _, ok := recount[id]; !ok {
				drift[id] = true
			}
		}
		for _, id := range byKey(drift) {
			idx := rep.found(FindingRefDrift, id.key(), -1, -1,
				fmt.Errorf("refcount %d, surviving recipes reference %d", s.blobRefs[id], recount[id]))
			rep.Findings[idx].Repaired = true
			rep.Repaired++
		}
		if len(drift) > 0 {
			s.blobRefs = maps.Clone(recount)
		}
	}

	// Phase 4: orphans — backend keys nothing live accounts for.
	// Deleting one is the repair; a failed delete stays an unrepaired
	// finding and is retried by the next scrub or Open.
	sort.Strings(listed)
	for _, k := range listed {
		if k == manifestKey {
			continue
		}
		if strings.HasPrefix(k, blobPrefix) {
			if id, err := parseBlobID(k); err == nil && recount[id] > 0 {
				continue
			}
		} else {
			if seq, rank, ok := parseRankKey(k); ok &&
				seq >= s.prunedTo && seq < len(s.gens) && rank < s.n {
				continue
			}
		}
		idx := rep.found(FindingOrphanBlob, k, -1, -1, nil)
		if derr := s.b.Delete(k); derr != nil {
			rep.Findings[idx].Err = derr
			continue
		}
		rep.Findings[idx].Repaired = true
		rep.Repaired++
	}

	// Phase 5: quarantine. A generation is bad if its own keys carry
	// unrepaired damage or it references a still-damaged blob; damage
	// propagates forward to every later generation up to the next full
	// base, whose per-rank delta chains may cross it. The propagation is
	// conservative — a rank whose chain happens to re-base early would
	// still resolve — but never lets a bit-wrong chain restart.
	bad := make(map[int]bool, len(directBad))
	for seq := range directBad {
		bad[seq] = true
	}
	for id := range damaged {
		for _, seq := range blobUsers[id] {
			bad[seq] = true
		}
	}
	for seq := s.prunedTo; seq+1 < len(s.gens); seq++ {
		if bad[seq] && !s.gens[seq+1].Base() {
			bad[seq+1] = true
		}
	}
	for seq := range bad {
		if !s.quarantined[seq] {
			rep.Quarantined = append(rep.Quarantined, seq)
		}
	}
	for seq := range s.quarantined {
		if !bad[seq] {
			rep.Released = append(rep.Released, seq)
		}
	}
	sort.Ints(rep.Quarantined)
	sort.Ints(rep.Released)
	if len(rep.Quarantined) > 0 || len(rep.Released) > 0 {
		s.quarantined = bad
		if len(s.gens) > 0 && bad[len(s.gens)-1] {
			// The head is quarantined: the next commit must not chain a
			// delta onto damage, so the chunk indexes are invalidated and
			// the chain reset — the next generation is a full base.
			for r := range s.index {
				s.index[r] = rankIndex{}
			}
			s.chain = 0
		}
		if err := s.persistManifest(); err != nil {
			return rep, fmt.Errorf("ckptstore: persisting scrub quarantine: %w", err)
		}
	}
	// Repairs and the quarantine manifest reach a write-behind
	// backend's slow tier before Scrub returns, blobs first.
	if err := s.drainBarrier(); err != nil {
		return rep, fmt.Errorf("ckptstore: flushing scrub writes: %w", err)
	}
	return rep, nil
}

// byKey returns the blobs of m in the order of their backend keys, the
// order scrub reports and repairs them in.
func byKey[V any](m map[blobID]V) []blobID {
	return slices.SortedFunc(maps.Keys(m), func(a, b blobID) int { return strings.Compare(a.key(), b.key()) })
}

// repairFromDonors tries to rebuild damaged content blobs from intact
// sharers. A damaged blob's bytes can survive inside another rank's or
// generation's image under a different run grouping: segment boundaries
// always fall on section-frame bounds, so any segment is a contiguous
// frame run, and a donor image reassembled from verified blobs is
// scanned for a frame run whose content key matches the damaged blob's.
// A match is bit-identical by construction (the key embeds CRC, length,
// and content hash), so writing it back is a true repair, confirmed by
// a read-back. Damaged blobs are tried in key order, so the repair
// writes follow from the store's contents alone.
func (s *Store) repairFromDonors(rep *ScrubReport, recipes [][]blobID, damaged map[blobID]int) {
	for _, ids := range recipes {
		if len(damaged) == 0 {
			return
		}
		clean := true
		for _, id := range ids {
			if _, bad := damaged[id]; bad {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		var donor []byte
		ok := true
		for _, id := range ids {
			seg, err := s.bGet(id.key())
			if err != nil {
				ok = false
				break
			}
			donor = append(donor, seg...)
		}
		if !ok {
			continue
		}
		bounds, ok := ckptimg.SectionFrameBounds(donor)
		if !ok {
			continue
		}
		for _, id := range byKey(damaged) {
			idx, bk, length := damaged[id], id.key(), int(id.size)
			for i := 0; i < len(bounds); i++ {
				j := sort.SearchInts(bounds, bounds[i]+length)
				if j >= len(bounds) || bounds[j] != bounds[i]+length {
					continue
				}
				run := donor[bounds[i]:bounds[j]]
				if idOf(run) != id {
					continue
				}
				if s.bPut(bk, exactCopy(run)) != nil {
					break
				}
				// Read-back: under an armed corruptor the repair write
				// itself may be struck; only a verified write counts.
				if got, err := s.bGet(bk); err != nil || !bytes.Equal(got, run) {
					break
				}
				rep.Findings[idx].Repaired = true
				rep.Repaired++
				delete(damaged, id)
				break
			}
		}
	}
}

// Quarantined lists the quarantined generation sequence numbers,
// ascending.
func (s *Store) Quarantined() []int {
	out := make([]int, 0, len(s.quarantined))
	for seq := range s.quarantined {
		out = append(out, seq)
	}
	sort.Ints(out)
	return out
}

// IsQuarantined reports whether generation seq is quarantined.
func (s *Store) IsQuarantined(seq int) bool {
	return s.quarantined[seq]
}

// OpenExisting opens a store whose backend already holds a manifest,
// adopting the rank count, chunk size, and dedup mode recorded there —
// the entry point for tools (the scrub CLI) that inspect a lineage
// without knowing how it was written. The backend must be one whose
// contents survive reconstruction (the fs backend; a fresh "mem"
// backend is always empty and errors here).
func OpenExisting(o Options) (*Store, error) {
	probe := o.withDefaults()
	b, err := NewBackend(probe.Backend, BackendConfig{Dir: probe.Dir, FrontCap: probe.FrontCap})
	if err != nil {
		return nil, err
	}
	data, err := b.Get(manifestKey)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: backend holds no manifest: %w", err)
	}
	var m manifest
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, fmt.Errorf("ckptstore: decoding manifest: %w", err)
	}
	if m.N <= 0 {
		return nil, fmt.Errorf("ckptstore: manifest records a %d-rank lineage", m.N)
	}
	o.ChunkBytes = m.ChunkBytes
	o.Dedup = m.Dedup
	return Open(m.N, o)
}
