package ckpt

import (
	"errors"
	"testing"

	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
)

// newTestCoordinator builds a coordinator for an n-rank job over a
// fresh in-memory, full-image store.
func newTestCoordinator(n, lag int) *Coordinator {
	st, err := ckptstore.Open(n, ckptstore.Options{})
	if err != nil {
		panic(err)
	}
	return NewStoreCoordinator(n, st, lag)
}

// rankImage encodes a minimal image for one rank of an n-rank job whose
// application state is the single byte tag.
func rankImage(t *testing.T, rank, n int, tag byte) []byte {
	t.Helper()
	data, err := ckptimg.EncodeOpts(&ckptimg.Image{Rank: rank, NRanks: n, Impl: "mpich", Design: "virtid", AppState: []byte{tag}}, ckptimg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDeliverRejectsDoubleDelivery(t *testing.T) {
	co := newTestCoordinator(2, 8)
	if err := co.Deliver(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	err := co.Deliver(0, []byte{2})
	if err == nil {
		t.Fatal("double delivery accepted")
	}
	var dd *DoubleDeliverError
	if !errors.As(err, &dd) {
		t.Fatalf("want *DoubleDeliverError, got %T: %v", err, err)
	}
	if dd.Rank != 0 || dd.Gen != 0 {
		t.Fatalf("error fields %+v", dd)
	}
}

func TestDeliverRejectsOutOfRangeRank(t *testing.T) {
	co := newTestCoordinator(2, 8)
	if err := co.Deliver(2, []byte{1}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := co.Deliver(-1, []byte{1}); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestImagesIncompleteGenerationTypedError(t *testing.T) {
	co := newTestCoordinator(3, 8)

	// Nothing delivered yet.
	_, err := co.Images()
	var inc *IncompleteSetError
	if !errors.As(err, &inc) {
		t.Fatalf("want *IncompleteSetError, got %T: %v", err, err)
	}
	if inc.Have != 0 || inc.Want != 3 {
		t.Fatalf("error fields %+v", inc)
	}

	// Partial generation.
	if err := co.Deliver(1, rankImage(t, 1, 3, 1)); err != nil {
		t.Fatal(err)
	}
	_, err = co.Images()
	if !errors.As(err, &inc) || inc.Have != 1 {
		t.Fatalf("partial generation: %v", err)
	}

	// Complete generation.
	if err := co.Deliver(0, rankImage(t, 0, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := co.Deliver(2, rankImage(t, 2, 3, 2)); err != nil {
		t.Fatal(err)
	}
	states := func() []byte {
		t.Helper()
		imgs, err := co.Images()
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, data := range imgs {
			img, err := ckptimg.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, img.AppState...)
		}
		return out
	}
	if got := states(); string(got) != "\x00\x01\x02" {
		t.Fatalf("image states %v", got)
	}
	if co.Taken() != 1 {
		t.Fatalf("taken %d", co.Taken())
	}

	// A second generation in flight does not clobber the last complete
	// set, and ranks may deliver again.
	if err := co.Deliver(0, rankImage(t, 0, 3, 10)); err != nil {
		t.Fatalf("second-generation delivery rejected: %v", err)
	}
	if got := states(); string(got) != "\x00\x01\x02" {
		t.Fatalf("last complete set lost: %v", got)
	}
	if co.Taken() != 1 {
		t.Fatalf("partial second generation already counted: taken %d", co.Taken())
	}
}

// fakeLink is an in-memory CtlLink: messages deposited per (dest, tag).
type fakeLink struct {
	n     int
	boxes map[int]map[int][][]int64 // dest -> tag -> queue
}

func newFakeLink(n int) *fakeLink {
	return &fakeLink{n: n, boxes: make(map[int]map[int][][]int64)}
}

func (f *fakeLink) CtlSend(dest, tag int, vals []int64) error {
	if f.boxes[dest] == nil {
		f.boxes[dest] = make(map[int][][]int64)
	}
	f.boxes[dest][tag] = append(f.boxes[dest][tag], append([]int64(nil), vals...))
	return nil
}

// linkFor returns the CtlLink view of one rank (probe/recv consume that
// rank's mailbox).
func (f *fakeLink) linkFor(rank int) CtlLink { return rankLink{f, rank} }

type rankLink struct {
	f    *fakeLink
	rank int
}

func (l rankLink) CtlSend(dest, tag int, vals []int64) error { return l.f.CtlSend(dest, tag, vals) }

func (l rankLink) CtlIprobe(src, tag int) (bool, int, int, error) {
	q := l.f.boxes[l.rank][tag]
	if len(q) == 0 {
		return false, 0, 0, nil
	}
	return true, src, len(q[0]), nil
}

func (l rankLink) CtlWait(src, tag int) error {
	// The fake is single-goroutine: a wait that would block is a test
	// deadlock, so it fails instead.
	if len(l.f.boxes[l.rank][tag]) == 0 {
		return errors.New("fakeLink: CtlWait would block forever")
	}
	return nil
}

func (l rankLink) CtlRecv(src, tag, count int) ([]int64, error) {
	q := l.f.boxes[l.rank][tag]
	if len(q) == 0 {
		return nil, errors.New("fakeLink: empty mailbox")
	}
	msg := q[0]
	l.f.boxes[l.rank][tag] = q[1:]
	return msg, nil
}

func TestNextBoundaryAnnouncesAndAgrees(t *testing.T) {
	const lag = 4
	co := newTestCoordinator(2, lag)
	net := newFakeLink(2)

	// No request pending: nothing happens.
	got, err := co.NextBoundary(net.linkFor(0), 0, 3, 100, -1)
	if err != nil || got != -1 {
		t.Fatalf("idle boundary: %d, %v", got, err)
	}

	co.RequestCheckpoint()
	// Rank 0 picks step+lag and announces.
	got, err = co.NextBoundary(net.linkFor(0), 0, 3, 100, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3+lag {
		t.Fatalf("rank 0 target %d, want %d", got, 3+lag)
	}
	// Rank 1 receives the same target.
	got1, err := co.NextBoundary(net.linkFor(1), 1, 4, 100, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != 3+lag {
		t.Fatalf("rank 1 target %d, want %d", got1, 3+lag)
	}

	co.CheckpointDone(3+lag, 100)
	got, err = co.NextBoundary(net.linkFor(0), 0, 3+lag+1, 100, -1)
	if err != nil || got != -1 {
		t.Fatalf("post-checkpoint boundary: %d, %v", got, err)
	}
}

func TestNextBoundarySkewBoundExceeded(t *testing.T) {
	co := newTestCoordinator(2, 2)
	net := newFakeLink(2)
	co.RequestCheckpoint()
	if _, err := co.NextBoundary(net.linkFor(0), 0, 3, 100, -1); err != nil {
		t.Fatal(err)
	}
	// Rank 1 is already past the announced target.
	if _, err := co.NextBoundary(net.linkFor(1), 1, 10, 100, -1); err == nil {
		t.Fatal("skew violation not detected")
	}
}

func TestNextBoundaryClampsToFinalStep(t *testing.T) {
	co := newTestCoordinator(1, 8)
	co.RequestCheckpointAtStep(50)
	got, err := co.NextBoundary(newFakeLink(1).linkFor(0), 0, 0, 10, -1)
	if err != nil || got != 10 {
		t.Fatalf("clamped target %d, %v", got, err)
	}
}

func TestNewDrainUnknownStrategy(t *testing.T) {
	if _, err := NewDrain("no-such-strategy"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
