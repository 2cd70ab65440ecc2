package harness

import (
	"testing"

	"manasim/internal/apps"
	"manasim/internal/impls"
)

// lammpsHaloPeers bounds the number of ranks a rank of the pipelined
// LAMMPS workload has sent to when it reaches the checkpoint.
const lammpsHaloPeers = 6

// TestDrainScaleToposort1024 is the scale smoke of the collective-free
// drain: one 1024-rank toposort cell of the sweep completes with fewer
// than 20 000 control messages — a row along each edge of the send
// graph and 2(n−1) close tokens, where an all-pairs announcement sends
// n(n−1) = 1 047 552 — and a payload within the sparse rows' size. No
// wall-clock assertion: the counts tell the protocols apart on any
// host.
func TestDrainScaleToposort1024(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke")
	}
	const n = 1024
	spec, err := apps.ByName("lammps")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := impls.Get("mpich")
	if err != nil {
		t.Fatal(err)
	}
	row, err := drainScaleCell(spec, factory, n, "toposort")
	if err != nil {
		t.Fatal(err)
	}
	if row.CtlMsgs >= 20000 {
		t.Errorf("CtlMsgs %d, want < 20000", row.CtlMsgs)
	}
	// At most lammpsHaloPeers rows of at most that many entries per
	// rank, and the close tokens.
	if bound := uint64(8 * (n*lammpsHaloPeers*(1+2*lammpsHaloPeers) + 2*(n-1))); row.CtlBytes == 0 || row.CtlBytes > bound {
		t.Errorf("CtlBytes %d, want in (0, %d]", row.CtlBytes, bound)
	}
	t.Logf("1024-rank toposort cell: drain VT %.3f ms, %d control messages, %.1f KB, wall %.2f s",
		row.DrainVTS*1e3, row.CtlMsgs, float64(row.CtlBytes)/1e3, row.WallS)
}
