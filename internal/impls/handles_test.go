package impls

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"manasim/internal/cluster"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
)

// handleScript runs a fixed sequence of handle-producing calls on a
// one-rank job's p and returns one line per step: the handle a call
// returned, or "ok" or the MPI error class for a call that returns none.
// The steps look up every constant, create one object of each kind,
// free the communicator and duplicate again (the freed slot's reuse, and
// Cray MPI's generation bump), then use the stale handle and free what
// may not be freed.
func handleScript(p mpi.Proc) ([]string, error) {
	var out []string
	put := func(step string, h mpi.Handle) { out = append(out, fmt.Sprintf("%s %#x", step, uint64(h))) }
	try := func(step string, err error) {
		res := "ok"
		if err != nil {
			res = classOf(err).String()
		}
		out = append(out, step+" "+res)
	}
	c := map[mpi.ConstName]mpi.Handle{}
	for name := mpi.ConstName(0); name < mpi.NumConstNames; name++ {
		h, err := p.LookupConst(name)
		if err != nil {
			return nil, fmt.Errorf("LookupConst(%v): %w", name, err)
		}
		c[name] = h
		put(name.String(), h)
	}
	world, f64 := c[mpi.ConstCommWorld], c[mpi.ConstFloat64]
	comm, err := p.CommDup(world)
	if err != nil {
		return nil, err
	}
	put("comm", comm)
	group, err := p.CommGroup(world)
	if err != nil {
		return nil, err
	}
	put("group", group)
	dt, err := p.TypeContiguous(4, f64)
	if err != nil {
		return nil, err
	}
	put("datatype", dt)
	op, err := p.OpCreate(func(in, inout []byte, count, elemSize int) {}, true)
	if err != nil {
		return nil, err
	}
	put("op", op)
	buf := make([]byte, 8)
	req, err := p.Irecv(buf, 1, f64, 0, 1, world)
	if err != nil {
		return nil, err
	}
	put("request", req)

	if err := p.CommFree(comm); err != nil {
		return nil, err
	}
	again, err := p.CommDup(world)
	if err != nil {
		return nil, err
	}
	put("comm-again", again)
	_, err = p.CommSize(comm)
	try("size-of-freed-comm", err)
	try("free-freed-comm", p.CommFree(comm))
	try("free-world", p.CommFree(world))
	try("free-double", p.TypeFree(f64))
	try("free-sum", p.OpFree(c[mpi.ConstOpSum]))
	try("free-wild-group", p.GroupFree(mpi.Handle(0x7ead_beef_0040)))

	if err := p.Send(buf, 1, f64, 0, 1, world); err != nil {
		return nil, err
	}
	if _, err := p.Wait(req); err != nil {
		return nil, err
	}
	try("free-comm-again", p.CommFree(again))
	try("free-group", p.GroupFree(group))
	try("free-datatype", p.TypeFree(dt))
	try("free-op", p.OpFree(op))
	return out, nil
}

// TestHandleValuesPinned runs handleScript on every implementation, as a
// fresh launch (session 0) and as a restart (session 1), and compares
// each line to testdata/handles.txt: a change to a handle table's layout,
// slot reuse, generation counter, session salt or constant binding moves
// a value there, and so would move the virtual-id translation, image
// bytes and goldens built on it.
func TestHandleValuesPinned(t *testing.T) {
	var got []string
	for _, name := range Names() {
		factory, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for session := range uint64(2) {
			var lines []string
			j := cluster.New(1, session, factory, testNet)
			j.Start(func(rank int, p mpi.Proc, clock *simtime.Clock) error {
				var err error
				lines, err = handleScript(p)
				return err
			})
			if _, err := j.WaitResult(); err != nil {
				t.Fatalf("%s session %d: %v", name, session, err)
			}
			for _, l := range lines {
				got = append(got, fmt.Sprintf("%s s%d %s", name, session, l))
			}
		}
	}
	raw, err := os.ReadFile("testdata/handles.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d: got %q, want %q", i+1, g, w)
		}
	}
	if t.Failed() {
		t.Logf("the script printed:\n%s", strings.Join(got, "\n"))
	}
}
