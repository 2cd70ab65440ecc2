package ckptimg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestCountersList: whatever order the peers first appear in, the list
// keeps one entry per peer, ascending, counting both directions, and a
// peer never talked to reads zero.
func TestCountersList(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	sent, recv := make([]uint64, n), make([]uint64, n)
	var c Counters
	for range 2000 {
		p := rng.Intn(n / 4)
		p *= 4 // every fourth rank only: the rest stay absent
		if rng.Intn(2) == 0 {
			c.AddSent(p)
			sent[p]++
		} else {
			c.AddRecv(p)
			recv[p]++
		}
	}
	prev := -1
	for _, e := range c {
		if e.Peer <= prev {
			t.Fatalf("peer %d after %d: list not strictly ascending: %v", e.Peer, prev, c)
		}
		if e.Sent != sent[e.Peer] || e.Recv != recv[e.Peer] {
			t.Fatalf("peer %d: %d/%d, want %d/%d", e.Peer, e.Sent, e.Recv, sent[e.Peer], recv[e.Peer])
		}
		prev = e.Peer
	}
	for p := range n {
		if got := c.Recv(p); got != recv[p] {
			t.Fatalf("Recv(%d) = %d, want %d", p, got, recv[p])
		}
		if _, ok := c.find(p); ok != (sent[p]+recv[p] > 0) {
			t.Fatalf("peer %d has an entry: %v, with %d/%d messages", p, ok, sent[p], recv[p])
		}
	}

	// Counting into an existing entry allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		c.AddSent(c[0].Peer)
		c.AddRecv(c[len(c)-1].Peer)
	}); allocs != 0 {
		t.Errorf("counting to a known peer allocates %.1f objects, want 0", allocs)
	}
}

// TestCountersSectionRoundTrip: an image carries its counter list
// exactly, through the full decoder and a delta image's tail, and the
// section costs a few bytes per peer, not per rank of the job.
func TestCountersSectionRoundTrip(t *testing.T) {
	img := sampleImage(3, 4096, 7)
	img.Counters = Counters{
		{Peer: 0, Sent: 1},
		{Peer: 2, Recv: 300},
		{Peer: 3, Sent: 5, Recv: 5},
		{Peer: 4, Sent: 1 << 40, Recv: 1},
		{Peer: 4095, Sent: 2, Recv: 9},
	}
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counters, img.Counters) {
		t.Fatalf("counters %v, want %v", got.Counters, img.Counters)
	}
	if sz := len(CountersSection(data)); sz > 1+len(img.Counters)*(2+2+6) {
		t.Errorf("counters section of %d peers is %d bytes", len(img.Counters), sz)
	}

	parent := IndexAppState(img.AppState, 2)
	delta, _, err := EncodeDelta(img, parent, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenDelta(delta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !reflect.DeepEqual(r.Image.Counters, img.Counters) {
		t.Fatalf("delta tail counters %v, want %v", r.Image.Counters, img.Counters)
	}

	// A rank that has sent and received nothing carries an empty list.
	img.Counters = nil
	if data, err = Encode(img); err != nil {
		t.Fatal(err)
	}
	if got, err = Decode(data); err != nil || got.Counters != nil {
		t.Fatalf("empty counters decoded as %v, %v", got.Counters, err)
	}
}

// imageWithCounters encodes img with its counters section replaced by
// a section of the given tag and payload.
func imageWithCounters(img *Image, tag uint32, payload []byte) []byte {
	var b bytes.Buffer
	writeImageHeader(&b, 0)
	writeMetaSection(&b, img)
	writeSection(&b, secApp, img.AppState)
	writeStoreSection(&b, &img.Store)
	writeDrainedSection(&b, img.Drained)
	writeReqsSection(&b, img.ReqResults)
	writeSection(&b, tag, payload)
	writeSection(&b, secEnd, nil)
	return b.Bytes()
}

// TestCountersSectionRefused: a counters section no runtime can have
// written is refused as ErrCorrupt, and so is the dense section of
// earlier builds, by every reader of a full image.
func TestCountersSectionRefused(t *testing.T) {
	const n = 8
	// uv encodes a section of rank 0's image: the entry count, then
	// per entry the peer's distance (from rank 0 for the first entry,
	// zigzag-coded) and the two counts.
	uv := func(vals ...uint64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	zz := func(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }
	dense := make([]byte, 0, 8+16*n)
	for range 2 {
		dense = binary.LittleEndian.AppendUint32(dense, n)
		for p := range n {
			dense = binary.LittleEndian.AppendUint64(dense, uint64(p%2))
		}
	}
	cases := []struct {
		name    string
		tag     uint32
		payload []byte
		want    string
	}{
		{"dense CTR2", 0x43545232, dense, "unknown section tag"},
		{"descending peer", secCounters3, uv(2, zz(3), 1, 0, 1<<64-2, 1, 0), "descends"},
		{"duplicate peer", secCounters3, uv(2, zz(3), 1, 0, 0, 1, 0), "repeated"},
		{"negative peer", secCounters3, uv(1, zz(-1), 1, 0), "outside"},
		{"zero entry", secCounters3, uv(2, zz(0), 1, 0, 2, 0, 0), "no messages"},
		{"first peer at NRanks", secCounters3, uv(1, zz(n), 1, 1), "outside"},
		{"first peer far out", secCounters3, uv(1, zz(-1<<62), 1, 1), "outside"},
		{"peer at NRanks", secCounters3, uv(2, zz(1), 1, 1, n-1, 1, 1), "outside"},
		{"peer past NRanks", secCounters3, uv(2, zz(1), 1, 1, 1<<40, 1, 1), "outside"},
		{"more entries than ranks", secCounters3, uv(n+1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), "malformed"},
		{"count past the payload", secCounters3, uv(3, 1, 1, 1), "malformed"},
		{"trailing bytes", secCounters3, append(uv(1, 1, 1, 1), 0), "malformed"},
		{"truncated entry", secCounters3, uv(1, 1, 1), "malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := imageWithCounters(sampleImage(0, n, 2), tc.tag, tc.payload)
			_, err := Decode(data)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode: %v, want ErrCorrupt mentioning %q", err, tc.want)
			}
			if _, err := IndexFull(data, 64); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("IndexFull: %v, want ErrCorrupt", err)
			}
			if tc.tag != secCounters3 {
				if err := Verify(data); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Verify: %v, want ErrCorrupt", err)
				}
			}
		})
	}
	// The same list, well formed, decodes.
	ok := imageWithCounters(sampleImage(0, n, 2), secCounters3, uv(2, zz(0), 1, 0, 7, 0, 3))
	img, err := Decode(ok)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Counters{{Peer: 0, Sent: 1}, {Peer: 7, Recv: 3}}); !reflect.DeepEqual(img.Counters, want) {
		t.Fatalf("counters %v, want %v", img.Counters, want)
	}
}
