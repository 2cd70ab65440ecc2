package faults

import (
	"fmt"

	"manasim/internal/ckptstore"
	"manasim/internal/fsim"
)

// StoreError is the typed failure of an injected StoreFault. Transient
// errors are retried by the store's bounded-backoff path; permanent
// ones roll the in-flight generation back.
type StoreError struct {
	Op        string // "put" or "get"
	Key       string
	Temporary bool
}

// Error implements the error interface.
func (e *StoreError) Error() string {
	mode := "permanent"
	if e.Temporary {
		mode = "transient"
	}
	return fmt.Sprintf("faults: injected %s store fault: %s %q", mode, e.Op, e.Key)
}

// Transient reports whether a retry may succeed; ckptstore's retry path
// keys off this method.
func (e *StoreError) Transient() bool { return e.Temporary }

// WrapBackend returns a ckptstore backend decorator injecting the
// planned store faults and silent corruptions, or nil when none are
// scheduled. Wire it via ckptstore.Options.WrapBackend (mana.Config
// does this when Faults is set and the job opens its own store).
func (inj *Injector) WrapBackend() func(ckptstore.Backend) ckptstore.Backend {
	if len(inj.store) == 0 && len(inj.corrupt) == 0 && inj.corruptRate <= 0 {
		return nil
	}
	return func(b ckptstore.Backend) ckptstore.Backend {
		return &flakyBackend{inner: b, inj: inj}
	}
}

// storeOp consumes one scheduled failure for key, if any. Faults are
// keyed by blob name rather than operation ordinal, so the schedule is
// deterministic no matter how callers sharing a store interleave
// writes.
func (inj *Injector) storeOp(op, key string) error {
	st := inj.store[key]
	if st == nil {
		return nil
	}
	if st.permanent {
		inj.storeHits++
		return &StoreError{Op: op, Key: key, Temporary: false}
	}
	if st.left <= 0 {
		return nil
	}
	st.left--
	inj.storeHits++
	return &StoreError{Op: op, Key: key, Temporary: true}
}

// StoreFaultsHit reports how many backend operations were failed.
func (inj *Injector) StoreFaultsHit() int {
	return inj.storeHits
}

// flakyBackend decorates a real backend with the injector's store-fault
// schedule. Put and Get consult the schedule; List and Delete pass
// through (rollback and pruning must stay able to clean up).
type flakyBackend struct {
	inner ckptstore.Backend
	inj   *Injector
}

func (b *flakyBackend) Name() string { return b.inner.Name() }

func (b *flakyBackend) CostModel() fsim.FS { return b.inner.CostModel() }

func (b *flakyBackend) Put(key string, data []byte) error {
	if err := b.inj.storeOp("put", key); err != nil {
		return err
	}
	// A strike at write time is a torn/damaged write: the store sees a
	// successful Put and the damage is only discoverable by reading.
	if mut, ok := b.inj.corruptStrike(key, data); ok {
		data = mut
	}
	return b.inner.Put(key, data)
}

func (b *flakyBackend) Get(key string) ([]byte, error) {
	if err := b.inj.storeOp("get", key); err != nil {
		return nil, err
	}
	data, err := b.inner.Get(key)
	if err != nil {
		return nil, err
	}
	// A strike at read time is bit-rot: rewrite the stored copy so the
	// damage persists for every later reader until a scrub repairs or
	// quarantines it. The inner backend takes the damaged bytes; the
	// caller gets the copy Get already made, damaged the same way.
	if mut, ok := b.inj.corruptStrike(key, data); ok {
		if err := b.inner.Put(key, mut); err != nil {
			return nil, err
		}
		return append(data[:0], mut...), nil
	}
	return data, nil
}

func (b *flakyBackend) List() ([]string, error) { return b.inner.List() }

func (b *flakyBackend) Delete(key string) error { return b.inner.Delete(key) }

// DrainBarrier forwards to the inner backend's drainer, if any, so the
// tier backend's durability semantics survive the decoration.
func (b *flakyBackend) DrainBarrier() error {
	if d, ok := b.inner.(ckptstore.Drainer); ok {
		return d.DrainBarrier()
	}
	return nil
}
