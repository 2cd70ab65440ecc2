package faults

import (
	"hash/fnv"
	"time"
)

// CorruptMode selects how a StoreCorrupt event damages a blob's bytes.
type CorruptMode uint8

const (
	// CorruptNone lets the injector draw a mode per event (or per key
	// under a corruption rate).
	CorruptNone CorruptMode = iota
	// CorruptFlip flips a single bit at a seeded offset.
	CorruptFlip
	// CorruptTruncate drops the blob's tail at a seeded cut point.
	CorruptTruncate
	// CorruptTorn keeps a prefix and zeroes the rest — a torn write
	// whose stored length still matches the original.
	CorruptTorn
)

// String names the mode.
func (m CorruptMode) String() string {
	switch m {
	case CorruptNone:
		return "any"
	case CorruptFlip:
		return "flip"
	case CorruptTruncate:
		return "truncate"
	case CorruptTorn:
		return "torn"
	default:
		return "invalid"
	}
}

// storeCorruptState is one scheduled keyed corruption: the damage mode
// and the service virtual time it arms at.
type storeCorruptState struct {
	mode CorruptMode
	at   time.Duration
}

// StoreCorruptions reports how many distinct blob keys have been
// silently corrupted so far.
func (inj *Injector) StoreCorruptions() int {
	return len(inj.corrupted)
}

// keyHash mixes the plan seed into a 64-bit hash of the blob key: the
// pure function both the rate strike decision and the damage-site
// selection derive from, so corruption is deterministic no matter how
// backend operations interleave.
func (inj *Injector) keyHash(key string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	s := uint64(inj.plan.Seed)
	for i := range seed {
		seed[i] = byte(s >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(key))
	// FNV's high bits barely move across similar short keys; a
	// murmur-style finalizer spreads the avalanche so the rate
	// comparison (which reads the top bits) stays uniform.
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// corruptStrike decides whether this operation on key silently damages
// the blob. Each key is struck at most once; the manifest is exempt
// (a damaged manifest is a dead store, not a degradable one, and the
// restart-fallback story needs the generation index readable). The
// returned slice is a damaged copy; data itself is never mutated.
func (inj *Injector) corruptStrike(key string, data []byte) ([]byte, bool) {
	if key == "manifest" || len(data) == 0 || inj.corrupted[key] {
		return nil, false
	}
	h := inj.keyHash(key)
	mode := CorruptNone
	if st := inj.corrupt[key]; st != nil && inj.base >= st.at {
		mode = st.mode
	} else if inj.corruptRate > 0 && float64(h>>11)/(1<<53) < inj.corruptRate {
		// Top 53 hash bits → uniform float in [0, 1).
		mode = inj.corruptRateMode
	} else {
		return nil, false
	}
	if mode == CorruptNone {
		mode = CorruptMode(1 + (h>>7)%3)
	}
	inj.corrupted[key] = true
	return damage(data, mode, h), true
}

// damage applies one corruption mode at a hash-seeded site.
func damage(data []byte, mode CorruptMode, h uint64) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	switch mode {
	case CorruptTruncate:
		// cut is in [0, len): at least one byte is always dropped.
		cut := int(h % uint64(len(out)))
		return out[:cut]
	case CorruptTorn:
		cut := int(h % uint64(len(out)))
		for i := cut; i < len(out); i++ {
			out[i] = 0
		}
		// A tail that was already zero leaves the blob unchanged;
		// force one observable byte so the strike is never a no-op.
		if data[len(out)-1] == 0 {
			out[len(out)-1] = 0xff
		}
		return out
	default: // CorruptFlip and any unknown mode
		off := int(h % uint64(len(out)))
		bit := uint((h >> 17) % 8)
		out[off] ^= 1 << bit
		return out
	}
}
