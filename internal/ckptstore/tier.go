package ckptstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"manasim/internal/fsim"
)

// tierDrainWorkers bounds the goroutines flushing the tier backend's
// write-behind queue — the same bounded-fan-out discipline as the
// store's rank pool (pool.go), sized small because flushes are pure
// backend I/O with no per-key ordering requirement beyond FIFO.
const tierDrainWorkers = 2

// tierBackend composes a fast front tier (a burst buffer) over a slow
// durable back tier. Put is write-through at front-tier speed: the blob
// is durable on the front tier when Put returns, and a bounded drainer
// flushes it to the back tier asynchronously, FIFO, so a manifest
// written after its generation's blobs also lands on the back tier
// after them — a back-tier resume never sees a manifest referencing
// blobs that have not arrived. Get is read-through: the front tier is
// preferred, and a back-tier hit (a resume with a cold front tier) is
// promoted into the front tier for subsequent reads.
//
// DrainBarrier (the Drainer interface) blocks until the queue is empty
// and reports every flush failure since the previous barrier;
// Store.Commit issues it after the manifest write so the commit's
// durability promise covers the back tier too.
//
// A positive FrontCap turns the front tier into a bounded LRU cache
// (a real burst buffer has a capacity): blobs already flushed to the
// back tier are evicted coldest-first once residency passes the cap and
// re-promoted on demand; blobs not yet flushed are pinned. TierOps
// counts the hits, misses, promotions, and evictions.
type tierBackend struct {
	front, back     Backend
	frontFS, backFS fsim.FS
	frontCap        int64 // front-tier residency bound in bytes (0 = unbounded)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []string        // keys awaiting a back-tier flush, FIFO
	queued   map[string]bool // members of queue (dedupe re-Puts)
	inflight map[string]bool // keys a drain worker holds right now
	workers  int
	flushErr []error // failures since the last barrier
	flushed  int     // blobs landed on the back tier

	// Front-tier residency: a bounded burst buffer is a cache, so the
	// backend tracks which keys live on the front tier and in what LRU
	// order, evicting cold flushed blobs once frontBytes passes the cap.
	sizes      map[string]int64 // bytes resident on the front tier, per key
	lru        []string         // front-tier keys, least recently used first
	frontBytes int64
	ops        TierOps // hit/miss/promotion/eviction counters

	// Modeled durability clocks: frontVT advances by the front profile
	// per Put (serialized-commit approximation), backVT trails it by the
	// back profile's cost. Their gap is the drain lag — how far behind
	// back-tier durability runs while commits return at front speed.
	frontVT, backVT time.Duration
}

func newTierBackend(cfg BackendConfig) (Backend, error) {
	frontName := cfg.Front
	if frontName == "" {
		frontName = "mem"
	}
	backName := cfg.Back
	if backName == "" {
		if cfg.Dir != "" {
			backName = "fs"
		} else {
			backName = "obj"
		}
	}
	if frontName == "tier" || backName == "tier" {
		return nil, fmt.Errorf("ckptstore: tier backend cannot nest tiers (front %q, back %q)", frontName, backName)
	}
	// Directory-backed tiers get disjoint roots so the back tier's List
	// never reports the front tier's files as keys.
	frontCfg := BackendConfig{}
	if frontName == "fs" {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("ckptstore: tier backend with an fs front tier needs a directory (Options.Dir / --ckpt-dir)")
		}
		frontCfg.Dir = filepath.Join(cfg.Dir, "front")
	}
	backCfg := BackendConfig{}
	if backName == "fs" {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("ckptstore: tier backend with an fs back tier needs a directory (Options.Dir / --ckpt-dir)")
		}
		backCfg.Dir = filepath.Join(cfg.Dir, "back")
	}
	front, err := NewBackend(frontName, frontCfg)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: tier front: %w", err)
	}
	back, err := NewBackend(backName, backCfg)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: tier back: %w", err)
	}
	b := &tierBackend{
		front: front, back: back,
		frontFS:  profileOr(front, fsim.BurstBuffer()),
		backFS:   profileOr(back, fsim.NFSv3()),
		frontCap: cfg.FrontCap,
		queued:   make(map[string]bool),
		inflight: make(map[string]bool),
		sizes:    make(map[string]int64),
	}
	b.cond = sync.NewCond(&b.mu)
	return b, nil
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
	b.mu.Lock()
	b.frontVT += b.frontFS.WriteCost(n)
	if b.backVT < b.frontVT {
		b.backVT = b.frontVT
	}
	b.backVT += b.backFS.WriteCost(n)
	if !b.queued[key] {
		b.queued[key] = true
		b.queue = append(b.queue, key)
	}
	b.noteResidentLocked(key, n)
	if b.workers < tierDrainWorkers {
		b.workers++
		// Lifetime: the worker exits once the queue is empty. It may
		// outlive the Put and the Store that made it; DrainBarrier
		// returns only when nothing is queued or in flight, so after it
		// the worker writes nothing more.
		go b.drainLoop()
	}
	b.mu.Unlock()
	return nil
}

// noteResidentLocked records key as resident on the front tier with the
// given size, marks it most recently used, and evicts cold keys past the
// capacity bound.
func (b *tierBackend) noteResidentLocked(key string, n int64) {
	if b.frontCap <= 0 {
		return // unbounded front tier: no residency bookkeeping needed
	}
	if b.sizes == nil {
		b.sizes = make(map[string]int64)
	}
	if old, ok := b.sizes[key]; ok {
		b.frontBytes -= old
		b.touchLocked(key)
	} else {
		b.lru = append(b.lru, key)
	}
	b.sizes[key] = n
	b.frontBytes += n
	b.evictLocked(key)
}

// touchLocked moves key to the most-recently-used end of the LRU order.
func (b *tierBackend) touchLocked(key string) {
	for i, k := range b.lru {
		if k == key {
			b.lru = append(b.lru[:i], b.lru[i+1:]...)
			b.lru = append(b.lru, key)
			return
		}
	}
}

// evictLocked deletes least-recently-used front-tier blobs until the
// resident bytes fit the cap. Keys still awaiting or undergoing a
// back-tier flush are pinned — the front tier holds their only copy —
// as are the manifest (tiny, and the first thing every resume reads)
// and the key just touched. When every candidate is pinned the front
// tier overshoots the cap; the next insert tries again after the drain
// has caught up.
func (b *tierBackend) evictLocked(keep string) {
	if b.frontCap <= 0 {
		return
	}
	for b.frontBytes > b.frontCap {
		victim := ""
		for _, k := range b.lru {
			if k == keep || k == manifestKey || b.queued[k] || b.inflight[k] {
				continue
			}
			victim = k
			break
		}
		if victim == "" {
			return
		}
		b.dropResidentLocked(victim)
		// A failed front delete leaves a stale blob that the next Get
		// will still hit; residency bookkeeping is dropped either way so
		// the cap keeps governing what the backend believes it holds.
		_ = b.front.Delete(victim)
		b.ops.Evictions++
	}
}

// dropResidentLocked forgets key's front-tier residency bookkeeping.
func (b *tierBackend) dropResidentLocked(key string) {
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

// drainLoop is one bounded drain worker: pop a key, copy front → back,
// record failures, exit when the queue runs dry.
func (b *tierBackend) drainLoop() {
	b.mu.Lock()
	for len(b.queue) > 0 {
		k := b.queue[0]
		if k == manifestKey {
			// The manifest must complete after every blob it references,
			// not merely be popped after them: with more than one worker,
			// a small manifest copy could otherwise overtake a large
			// blob's, and a crash in that window would leave a back tier
			// whose manifest lists a generation missing its blobs. Wait
			// out all in-flight flushes first (the manifest flush is an
			// internal ordering barrier).
			if len(b.inflight) > 0 {
				b.cond.Wait()
				continue
			}
		}
		b.queue = b.queue[1:]
		delete(b.queued, k)
		b.inflight[k] = true
		b.mu.Unlock()
		data, err := b.front.Get(k)
		if err == nil {
			err = b.back.Put(k, data)
		}
		b.mu.Lock()
		delete(b.inflight, k)
		if err != nil {
			b.flushErr = append(b.flushErr, fmt.Errorf("ckptstore: tier flush of %q: %w", k, err))
		} else {
			b.flushed++
		}
		b.cond.Broadcast()
	}
	b.workers--
	b.cond.Broadcast()
	b.mu.Unlock()
}

// DrainBarrier blocks until every queued blob reached the back tier and
// returns (clearing) the flush failures accumulated since the previous
// barrier.
func (b *tierBackend) DrainBarrier() error {
	b.mu.Lock()
	for len(b.queue) > 0 || len(b.inflight) > 0 {
		b.cond.Wait()
	}
	err := errors.Join(b.flushErr...)
	b.flushErr = nil
	b.mu.Unlock()
	return err
}

// DrainLag reports the modeled gap between front-tier and back-tier
// durability — the time a back-tier-only reader would have to wait
// after the last Put acknowledged. Experiments surface it as the price
// of committing at burst-buffer speed.
func (b *tierBackend) DrainLag() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.backVT - b.frontVT
}

// Flushed reports how many blobs have landed on the back tier.
func (b *tierBackend) Flushed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushed
}

func (b *tierBackend) Get(key string) ([]byte, error) {
	if data, err := b.front.Get(key); err == nil {
		b.mu.Lock()
		b.ops.FrontHits++
		b.touchLocked(key)
		b.mu.Unlock()
		return data, nil
	}
	b.mu.Lock()
	b.ops.FrontMisses++
	b.mu.Unlock()
	data, err := b.back.Get(key)
	if err != nil {
		return nil, err
	}
	// Promote straight into the front tier (not via b.Put: a promotion
	// must not re-enqueue a flush of bytes the back tier already holds).
	if err := b.front.Put(key, data); err != nil {
		return nil, fmt.Errorf("ckptstore: tier promote of %q: %w", key, err)
	}
	b.mu.Lock()
	b.ops.Promotions++
	b.noteResidentLocked(key, int64(len(data)))
	b.mu.Unlock()
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
// cancelled first, and an in-flight flush is waited out, so a drain
// worker can never resurrect a deleted blob on the back tier.
func (b *tierBackend) Delete(key string) error {
	b.mu.Lock()
	if b.queued[key] {
		delete(b.queued, key)
		for i, k := range b.queue {
			if k == key {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				break
			}
		}
	}
	for b.inflight[key] {
		b.cond.Wait()
	}
	b.dropResidentLocked(key)
	b.mu.Unlock()
	return errors.Join(b.front.Delete(key), b.back.Delete(key))
}

// TierOps counts the front-tier cache traffic of a tier backend: Get
// hits and misses against the front tier, promotions of back-tier blobs
// into it, and the LRU evictions its capacity bound forced. FrontBytes
// and FrontCap snapshot the current residency against the configured
// bound (FrontCap 0 = unbounded, no evictions ever).
type TierOps struct {
	FrontHits, FrontMisses, Promotions, Evictions int
	FrontBytes, FrontCap                          int64
}

// Ops reports the front-tier cache counters so far.
func (b *tierBackend) Ops() TierOps {
	b.mu.Lock()
	defer b.mu.Unlock()
	ops := b.ops
	ops.FrontBytes = b.frontBytes
	ops.FrontCap = b.frontCap
	return ops
}
