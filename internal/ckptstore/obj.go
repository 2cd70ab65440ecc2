package ckptstore

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"manasim/internal/fsim"
)

// objBackend models an object store (S3-style REST semantics): a flat
// keyed blob service where every operation — Put, Get, List, Delete —
// is a round trip paying the profile's per-op latency before any bytes
// stream. Blobs live in process memory; what the model adds over "mem"
// is the cost profile (fsim.ObjStore) that checkpoint I/O is charged
// against, plus per-op accounting so experiments can report how many
// keyed round trips a commit or restart actually issued.
type objBackend struct {
	profile fsim.FS

	mu    sync.Mutex
	blobs map[string][]byte
	ops   ObjOps
}

// ObjOps counts the keyed round trips an object-store backend served
// and the modeled time they cost in aggregate (serialized; the
// per-rank virtual-time charge lives in the job's cost model).
type ObjOps struct {
	Puts, Gets, Lists, Deletes int
	// VT is the modeled time of all round trips end to end, using the
	// profile's own cost formulas: WriteCost per Put, ReadCost per Get,
	// a bare Startup for the payload-less metadata ops.
	VT time.Duration
}

func newObjBackend(BackendConfig) (Backend, error) {
	return &objBackend{profile: fsim.ObjStore(), blobs: make(map[string][]byte)}, nil
}

func (b *objBackend) Name() string { return "obj" }

// CostModel reports the object-store profile; checkpoint writes and
// restart reads over this backend are charged per-op latency plus
// bandwidth instead of the job's filesystem model.
func (b *objBackend) CostModel() fsim.FS { return b.profile }

func (b *objBackend) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blobs[key] = data
	b.ops.Puts++
	b.ops.VT += b.profile.WriteCost(int64(len(data)))
	return nil
}

func (b *objBackend) Get(key string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.blobs[key]
	b.ops.Gets++
	b.ops.VT += b.profile.ReadCost(int64(len(data)))
	if !ok {
		return nil, fmt.Errorf("ckptstore: no blob %q", key)
	}
	return append([]byte(nil), data...), nil
}

func (b *objBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops.Lists++
	b.ops.VT += b.profile.Startup // metadata round trip, no payload
	out := make([]string, 0, len(b.blobs))
	for k := range b.blobs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

func (b *objBackend) Delete(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops.Deletes++
	b.ops.VT += b.profile.Startup // metadata round trip, no payload
	delete(b.blobs, key)
	return nil
}
