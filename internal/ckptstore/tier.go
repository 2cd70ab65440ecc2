package ckptstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"manasim/internal/fsim"
)

// tierBackend composes a fast front tier (a burst buffer) over a slow
// durable back tier. Put is write-through at front-tier speed: the blob
// is durable on the front tier when Put returns and its key joins a
// FIFO flush queue. DrainBarrier (the Drainer interface) flushes the
// queue to the back tier on the calling goroutine, in order, so a
// manifest written after its generation's blobs also lands on the back
// tier after them — a back-tier resume never sees a manifest
// referencing blobs that have not arrived — and reports every flush
// failure. The store issues it after every manifest write, so Commit's
// durability promise covers the back tier too. Get is read-through: the
// front tier is preferred, and a back-tier hit (a resume with a cold
// front tier) is promoted into the front tier for subsequent reads.
//
// A positive FrontCap turns the front tier into a bounded LRU cache
// (a real burst buffer has a capacity): blobs already flushed to the
// back tier are evicted coldest-first once residency passes the cap and
// re-promoted on demand; blobs not yet flushed are pinned.
type tierBackend struct {
	front, back     Backend
	frontFS, backFS fsim.FS
	frontCap        int64 // front-tier residency bound in bytes (0 = unbounded)

	queue  []string        // keys awaiting a back-tier flush, FIFO
	queued map[string]bool // members of queue (dedupe re-Puts)

	// Front-tier residency: a bounded burst buffer is a cache, so the
	// backend tracks which keys live on the front tier and in what LRU
	// order, evicting cold flushed blobs once frontBytes passes the cap.
	sizes      map[string]int64 // bytes resident on the front tier, per key
	lru        []string         // front-tier keys, least recently used first
	frontBytes int64

	// Modeled durability clocks: frontVT advances by the front profile
	// per Put (serialized-commit approximation), backVT trails it by the
	// back profile's cost. Their gap is the drain lag — how far behind
	// back-tier durability runs while commits return at front speed.
	frontVT, backVT time.Duration
}

// newTierBackend composes a mem front tier over an fs back tier rooted
// at cfg.Dir/back, or over an obj back tier when no directory is given.
func newTierBackend(cfg BackendConfig) (Backend, error) {
	var back Backend
	if cfg.Dir == "" {
		back = newObjBackend()
	} else {
		fs, err := newFSBackend(BackendConfig{Dir: filepath.Join(cfg.Dir, "back")})
		if err != nil {
			return nil, fmt.Errorf("ckptstore: tier back: %w", err)
		}
		back = fs
	}
	return &tierBackend{
		front: newMemBackend(), back: back,
		frontFS:  fsim.BurstBuffer(),
		backFS:   profileOr(back, fsim.NFSv3()),
		frontCap: cfg.FrontCap,
		queued:   make(map[string]bool),
		sizes:    make(map[string]int64),
	}, nil
}

func (b *tierBackend) Name() string { return "tier" }

// CostModel reports the front tier's profile: writes acknowledge at
// front-tier speed and reads prefer the front tier, so that is the tier
// checkpoint I/O actually hits. The back tier's cost shows up as drain
// lag, not in the per-image charge.
func (b *tierBackend) CostModel() fsim.FS { return b.frontFS }

func (b *tierBackend) Put(key string, data []byte) error {
	if err := b.front.Put(key, data); err != nil {
		return err
	}
	n := int64(len(data))
	b.frontVT += b.frontFS.WriteCost(n)
	if b.backVT < b.frontVT {
		b.backVT = b.frontVT
	}
	b.backVT += b.backFS.WriteCost(n)
	if !b.queued[key] {
		b.queued[key] = true
		b.queue = append(b.queue, key)
	}
	b.noteResident(key, n)
	return nil
}

// noteResident records key as resident on the front tier with the
// given size, marks it most recently used, and evicts cold keys past the
// capacity bound.
func (b *tierBackend) noteResident(key string, n int64) {
	if b.frontCap <= 0 {
		return // unbounded front tier: no residency bookkeeping needed
	}
	if b.sizes == nil {
		b.sizes = make(map[string]int64)
	}
	if old, ok := b.sizes[key]; ok {
		b.frontBytes -= old
		b.touch(key)
	} else {
		b.lru = append(b.lru, key)
	}
	b.sizes[key] = n
	b.frontBytes += n
	b.evict(key)
}

// touch moves key to the most-recently-used end of the LRU order.
func (b *tierBackend) touch(key string) {
	for i, k := range b.lru {
		if k == key {
			b.lru = append(b.lru[:i], b.lru[i+1:]...)
			b.lru = append(b.lru, key)
			return
		}
	}
}

// evict deletes least-recently-used front-tier blobs until the
// resident bytes fit the cap. Keys still awaiting a back-tier flush
// are pinned — the front tier holds their only copy — as are the
// manifest (tiny, and the first thing every resume reads) and the key
// just touched. When every candidate is pinned the front tier
// overshoots the cap; the next insert tries again after the next
// DrainBarrier has flushed them.
func (b *tierBackend) evict(keep string) {
	if b.frontCap <= 0 {
		return
	}
	for b.frontBytes > b.frontCap {
		victim := ""
		for _, k := range b.lru {
			if k == keep || k == manifestKey || b.queued[k] {
				continue
			}
			victim = k
			break
		}
		if victim == "" {
			return
		}
		b.dropResident(victim)
		// A failed front delete leaves a stale blob that the next Get
		// will still hit; residency bookkeeping is dropped either way so
		// the cap keeps governing what the backend believes it holds.
		_ = b.front.Delete(victim)
	}
}

// dropResident forgets key's front-tier residency bookkeeping.
func (b *tierBackend) dropResident(key string) {
	n, ok := b.sizes[key]
	if !ok {
		return
	}
	b.frontBytes -= n
	delete(b.sizes, key)
	for i, k := range b.lru {
		if k == key {
			b.lru = append(b.lru[:i], b.lru[i+1:]...)
			break
		}
	}
}

// DrainBarrier flushes every queued blob to the back tier, oldest
// first, on the calling goroutine, and returns the flush failures. A
// failed key leaves the queue; its only copy stays on the front tier.
// A Delete either cancels a key before its flush or deletes it from
// both tiers after it, so a flush never resurrects a deleted blob on
// the back tier.
func (b *tierBackend) DrainBarrier() error {
	var errs []error
	for len(b.queue) > 0 {
		k := b.queue[0]
		b.queue = b.queue[1:]
		delete(b.queued, k)
		data, err := b.front.Get(k)
		if err == nil {
			err = b.back.Put(k, data)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("ckptstore: tier flush of %q: %w", k, err))
		}
	}
	return errors.Join(errs...)
}

// DrainLag reports the modeled gap between front-tier and back-tier
// durability — the time a back-tier-only reader would have to wait
// after the last Put acknowledged. Experiments surface it as the price
// of committing at burst-buffer speed.
func (b *tierBackend) DrainLag() time.Duration {
	return b.backVT - b.frontVT
}

func (b *tierBackend) Get(key string) ([]byte, error) {
	if data, err := b.front.Get(key); err == nil {
		b.touch(key)
		return data, nil
	}
	data, err := b.back.Get(key)
	if err != nil {
		return nil, err
	}
	// Promote straight into the front tier (not via b.Put: a promotion
	// must not re-enqueue a flush of bytes the back tier already holds).
	// The front keeps a copy of its own: data goes to the caller.
	if err := b.front.Put(key, exactCopy(data)); err != nil {
		return nil, fmt.Errorf("ckptstore: tier promote of %q: %w", key, err)
	}
	b.noteResident(key, int64(len(data)))
	return data, nil
}

func (b *tierBackend) List() ([]string, error) {
	fk, err := b.front.List()
	if err != nil {
		return nil, err
	}
	bk, err := b.back.List()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(fk)+len(bk))
	out := make([]string, 0, len(fk)+len(bk))
	for _, k := range append(fk, bk...) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes the key from both tiers. A pending flush of the key is
// cancelled first, so DrainBarrier can never resurrect a deleted blob
// on the back tier.
func (b *tierBackend) Delete(key string) error {
	if b.queued[key] {
		delete(b.queued, key)
		for i, k := range b.queue {
			if k == key {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				break
			}
		}
	}
	b.dropResident(key)
	return errors.Join(b.front.Delete(key), b.back.Delete(key))
}
