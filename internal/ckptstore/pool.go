package ckptstore

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolWidth is the number of workers a pool of the configured width
// (0 = GOMAXPROCS) runs over n ranks: at least one, at most n.
func poolWidth(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// forEachRank runs fn(rank) for rank 0..n-1 on a bounded worker pool of
// the given width, the fan-out primitive under the store's parallel
// commit and materialize paths.
//
// Semantics:
//
//   - Results are the caller's concern: fn writes into rank-indexed
//     slots, so output ordering is deterministic regardless of
//     scheduling.
//   - First-error cancellation: once any fn returns an error, no new
//     rank is started (in-flight calls finish). Among the errors that
//     did occur, the lowest-ranked one is returned. Which ranks ran
//     before cancellation is scheduling-dependent, so when several
//     ranks are bad the reported rank may vary between runs; only the
//     serial path pins it to the first failing rank.
//   - workers <= 1 (or n <= 1) degenerates to a serial loop with the
//     exact legacy behavior: stop at the first failing rank.
func forEachRank(n, workers int, fn func(rank int) error) error {
	workers = poolWidth(n, workers)
	if workers == 1 {
		for r := 0; r < n; r++ {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64 // next rank to claim
		stop    atomic.Bool  // set on first error: no new ranks start
		mu      sync.Mutex
		errRank = n // lowest rank that failed so far
		firstE  error
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Lifetime: every worker exits when the ranks run out or after
		// the first error, and wg.Wait below returns only after the
		// last one has, so no worker outlives forEachRank.
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				r := int(next.Add(1)) - 1
				if r >= n {
					return
				}
				if err := fn(r); err != nil {
					mu.Lock()
					if r < errRank {
						errRank, firstE = r, err
					}
					mu.Unlock()
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstE
}
