// Package fsim models the checkpoint storage tier. The paper's Table 3
// measures checkpoint times against an NFSv3 filesystem on the Discovery
// cluster; production sites use parallel filesystems (Lustre on
// Perlmutter). The model charges virtual time
//
//	startup + bytes / bandwidth
//
// per rank image: NFS shows a large per-checkpoint setup cost (metadata,
// sync) and a modest per-rank streaming bandwidth, which is exactly the
// trend in Table 3 — small images are startup-dominated (low effective
// MB/s/rank), large images approach streaming bandwidth.
//
// The package prices storage and holds no bytes: checkpoint images live
// in the checkpoint store (internal/ckptstore), whose backends report
// one of these profiles as their cost model.
package fsim

import "time"

// FS is a filesystem performance profile.
type FS struct {
	// Name identifies the profile ("nfsv3", "lustre").
	Name string
	// Startup is the fixed per-image cost (open, metadata, final sync).
	Startup time.Duration
	// PerMB is the streaming time per megabyte per rank.
	PerMB time.Duration
}

// NFSv3 returns the Discovery cluster's checkpoint filesystem profile,
// calibrated against Table 3: ~6.2 s startup and ~13.5 MB/s/rank
// streaming reproduce the measured trend (CoMD 32 MB -> ~8.9 s,
// HPCG 934 MB -> ~73 s).
func NFSv3() FS {
	return FS{Name: "nfsv3", Startup: 6200 * time.Millisecond, PerMB: time.Second / 13500 * 1000}
}

// ObjStore returns an object-store profile (S3-style REST semantics):
// every operation is a keyed round trip paying request latency
// (authentication, metadata, routing) before a modest per-rank stream
// (~125 MB/s). Small images are round-trip-dominated, exactly the
// object-store trend.
func ObjStore() FS {
	return FS{Name: "objstore", Startup: 120 * time.Millisecond, PerMB: 8 * time.Millisecond}
}

// BurstBuffer returns a node-local NVMe burst-buffer profile (DataWarp
// style): negligible setup and ~2 GB/s/rank streaming. It is the fast
// front tier of the tiered checkpoint backend; durability on the slow
// tier arrives later via the drainer.
func BurstBuffer() FS {
	return FS{Name: "burstbuffer", Startup: 25 * time.Millisecond, PerMB: 500 * time.Microsecond}
}

// NVMe returns a node-local NVMe profile scaled so one checkpoint of a
// shortened proxy run costs a few steps. The site profiles' startup
// costs (25 ms even for the burst buffer) dwarf whole shortened runs
// and would push the scheduler and service experiments to "never
// checkpoint".
func NVMe() FS {
	return FS{Name: "nvme", Startup: 500 * time.Microsecond, PerMB: 10 * time.Microsecond}
}

// WriteCost returns the modeled time to write an image of n bytes.
func (f FS) WriteCost(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	return f.Startup + time.Duration(n/(1<<20))*f.PerMB
}

// ReadCost returns the modeled time to read an image of n bytes
// (restart). Reads skip most of the sync cost.
func (f FS) ReadCost(n int64) time.Duration {
	return f.Startup/4 + time.Duration(n/(1<<20))*f.PerMB
}

// RetryBackoff returns the modeled wait before retry number attempt
// (1-based) of a failed storage operation: exponential over a base of
// a quarter of the tier's startup cost, so a slow-setup tier (NFS)
// backs off proportionally longer than a burst buffer. A zero profile
// falls back to a 1 ms base.
func (f FS) RetryBackoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	base := f.Startup / 4
	if base <= 0 {
		base = time.Millisecond
	}
	return base << uint(attempt-1)
}

// EffectiveMBps reports the end-to-end MB/s/rank for an image of n
// bytes, the metric of Table 3's last column.
func (f FS) EffectiveMBps(n int64) float64 {
	c := f.WriteCost(n)
	if c <= 0 {
		return 0
	}
	return float64(n) / (1 << 20) / c.Seconds()
}
