package ckptstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"manasim/internal/fsim"
)

// Backend is the persistence layer under a Store: a flat key/blob
// namespace. Keys are store-generated ("gen0003/rank02", "manifest")
// and contain at most one '/'. A backend has one caller at a time, its
// store's (see the package comment, "Concurrency model"), and keeps no
// lock.
type Backend interface {
	// Name reports the registered backend name.
	Name() string
	// Put stores a blob under key, replacing any previous value. The
	// blob must be durable when Put returns. Put takes ownership of
	// data: a backend may keep the slice itself as the stored blob, so
	// the caller must not write to it afterwards (reading it stays
	// safe).
	Put(key string, data []byte) error
	// Get retrieves a copy of a blob that the caller owns and may
	// modify; a missing key is an error.
	Get(key string) ([]byte, error)
	// List returns all stored keys in sorted order.
	List() ([]string, error)
	// Delete removes a blob; deleting a missing key is not an error.
	Delete(key string) error
	// CostModel reports the storage cost profile of the tier this
	// backend models. A zero FS (empty Name) means the backend models
	// nothing; checkpoint I/O is then charged against the job's
	// configured filesystem profile (Config.FS).
	CostModel() fsim.FS
}

// Drainer is implemented by backends whose Put defers part of the
// durability work — the tier backend acknowledges at front-tier speed
// and queues a flush to the back tier. DrainBarrier does the deferred
// work on the calling goroutine and returns its failures; the store
// calls it after every manifest write, so Commit's durability promise
// covers the slow tier too.
type Drainer interface {
	DrainBarrier() error
}

// DefaultBackend is used when Options.Backend is empty.
const DefaultBackend = "mem"

// BackendConfig carries the per-store knobs a backend factory may need;
// backends ignore fields that do not apply to them.
type BackendConfig struct {
	// Dir is the root directory of directory-backed backends: "fs", and
	// the tier backend's fs back tier (at Dir/back).
	Dir string
	// FrontCap bounds the tier backend's front tier to this many
	// resident bytes (0 = unbounded); least-recently-used blobs already
	// flushed to the back tier are evicted past the cap.
	FrontCap int64
}

// backendReg holds the built-in backends by name. It is never written.
var backendReg = map[string]func(cfg BackendConfig) (Backend, error){
	"mem":  func(BackendConfig) (Backend, error) { return newMemBackend(), nil },
	"fs":   newFSBackend,
	"obj":  func(BackendConfig) (Backend, error) { return newObjBackend(), nil },
	"tier": newTierBackend,
}

// NewBackend instantiates the backend registered under name; the empty
// string selects DefaultBackend.
func NewBackend(name string, cfg BackendConfig) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	f, ok := backendReg[name]
	if !ok {
		return nil, fmt.Errorf("ckptstore: unknown backend %q (have %v)", name, BackendNames())
	}
	return f(cfg)
}

// BackendNames lists the registered backends in sorted order.
func BackendNames() []string {
	out := make([]string, 0, len(backendReg))
	for n := range backendReg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// profileOr resolves a backend's own cost model, falling back to def for
// backends that model nothing (the tier backend uses it to attach the
// NFS profile to an fs back tier).
func profileOr(b Backend, def fsim.FS) fsim.FS {
	if m := b.CostModel(); m.Name != "" {
		return m
	}
	return def
}

// ---------------------------------------------------------------------
// mem and obj: in-process blobs

// memBackend keeps blobs in process memory. As "mem" it models no
// storage tier of its own, so its CostModel is zero and the job's
// configured filesystem profile governs. As "obj" it models an object
// store (S3-style REST semantics), a flat keyed blob service where
// every operation is a round trip: its CostModel is the fsim.ObjStore
// profile (per-op latency before any bytes stream, then bandwidth), and
// checkpoint I/O over it is charged against that.
type memBackend struct {
	name    string
	profile fsim.FS
	blobs   map[string][]byte
}

func newMemBackend() *memBackend {
	return &memBackend{name: "mem", blobs: make(map[string][]byte)}
}

func newObjBackend() *memBackend {
	return &memBackend{name: "obj", profile: fsim.ObjStore(), blobs: make(map[string][]byte)}
}

func (b *memBackend) Name() string { return b.name }

func (b *memBackend) CostModel() fsim.FS { return b.profile }

func (b *memBackend) Put(key string, data []byte) error {
	b.blobs[key] = data
	return nil
}

func (b *memBackend) Get(key string) ([]byte, error) {
	data, ok := b.blobs[key]
	if !ok {
		return nil, fmt.Errorf("ckptstore: no blob %q", key)
	}
	return append([]byte(nil), data...), nil
}

// exactCopy returns b in an array of its own whose capacity is exactly
// len(b), so a blob kept from it pins no spare bytes.
func exactCopy(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

func (b *memBackend) List() ([]string, error) {
	out := make([]string, 0, len(b.blobs))
	for k := range b.blobs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

func (b *memBackend) Delete(key string) error {
	delete(b.blobs, key)
	return nil
}

// ---------------------------------------------------------------------
// fs: one file per key under a root directory

type fsBackend struct {
	root string
}

func newFSBackend(cfg BackendConfig) (Backend, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ckptstore: fs backend needs a directory (Options.Dir / --ckpt-dir)")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckptstore: creating %s: %w", cfg.Dir, err)
	}
	return &fsBackend{root: cfg.Dir}, nil
}

func (b *fsBackend) Name() string { return "fs" }

// CostModel is zero: the fs backend is the direct path onto whatever
// filesystem the job models (NFSv3 by default), so Config.FS governs.
func (b *fsBackend) CostModel() fsim.FS { return fsim.FS{} }

// path maps a key to a file path, refusing traversal outside the root.
func (b *fsBackend) path(key string) (string, error) {
	if key == "" || strings.Contains(key, "..") || strings.HasPrefix(key, "/") {
		return "", fmt.Errorf("ckptstore: bad key %q", key)
	}
	return filepath.Join(b.root, filepath.FromSlash(key)), nil
}

func (b *fsBackend) Put(key string, data []byte) error {
	p, err := b.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("ckptstore: %w", err)
	}
	// Temp file + rename: a torn write never leaves a half image under
	// the final name.
	tmp, err := os.CreateTemp(filepath.Dir(p), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckptstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("ckptstore: writing %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckptstore: writing %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckptstore: publishing %q: %w", key, err)
	}
	return nil
}

func (b *fsBackend) Get(key string) ([]byte, error) {
	p, err := b.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: no blob %q: %w", key, err)
	}
	return data, nil
}

func (b *fsBackend) List() ([]string, error) {
	var out []string
	err := filepath.WalkDir(b.root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".") {
			return err
		}
		rel, err := filepath.Rel(b.root, p)
		if err != nil {
			return err
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ckptstore: listing %s: %w", b.root, err)
	}
	sort.Strings(out)
	return out, nil
}

func (b *fsBackend) Delete(key string) error {
	p, err := b.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ckptstore: deleting %q: %w", key, err)
	}
	return nil
}
