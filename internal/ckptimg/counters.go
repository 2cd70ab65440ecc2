package ckptimg

import (
	"bytes"
	"fmt"
	"math"
	"slices"
)

// PeerCount is one rank's point-to-point traffic with one peer: the
// application messages it has sent to the peer and received from it.
type PeerCount struct {
	// Peer is the world rank of the other side.
	Peer int
	// Sent and Recv count the messages each way.
	Sent, Recv uint64
}

// Counters is one rank's cumulative point-to-point message counters,
// the ones the drain reconciles: an entry per world rank the rank has
// sent to or received from, in ascending peer order. A rank that talks
// to k peers holds k entries however many ranks the job has. An entry
// is created by the first message either way and never removed, so no
// entry is all zero.
//
// The runtime counts into the list, the drain strategies read it and
// the image carries it (section CTR3). Adding a peer's first message
// inserts an entry, which may move the list: hold no subslice of it, or
// pointer into it, across an AddSent or AddRecv.
type Counters []PeerCount

// find returns the index of p's entry, or the index it would be
// inserted at, and whether it exists.
func (c Counters) find(p int) (int, bool) {
	lo, hi := 0, len(c)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c[m].Peer < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c) && c[lo].Peer == p
}

// at returns p's entry, inserting an empty one first if there is none.
func (c *Counters) at(p int) *PeerCount {
	i, ok := c.find(p)
	if !ok {
		*c = slices.Insert(*c, i, PeerCount{Peer: p})
	}
	return &(*c)[i]
}

// AddSent counts one message sent to world rank p.
func (c *Counters) AddSent(p int) { c.at(p).Sent++ }

// AddRecv counts one message received from world rank p.
func (c *Counters) AddRecv(p int) { c.at(p).Recv++ }

// Recv reports the messages received from world rank p.
func (c Counters) Recv(p int) uint64 {
	if i, ok := c.find(p); ok {
		return c[i].Recv
	}
	return 0
}

// minPeerCountBytes is the smallest encoding of one CTR3 entry: three
// one-byte varints.
const minPeerCountBytes = 3

// writeCountersSection writes rank's CTR3 section: the entry count,
// then per entry the peer, the sent count and the received count. The
// first peer is written as its zigzag-coded distance from rank itself,
// every later one as its uvarint gap from the peer before, so a rank
// whose peers are its neighbours writes the same bytes whichever rank
// it is and however many ranks the job has: two or three bytes an
// entry for a halo exchange.
func writeCountersSection(b *bytes.Buffer, rank int, c Counters) {
	off := beginSection(b)
	appendUvarint(b, uint64(len(c)))
	for i, e := range c {
		if i == 0 {
			appendVarint(b, int64(e.Peer-rank))
		} else {
			appendUvarint(b, uint64(e.Peer-c[i-1].Peer))
		}
		appendUvarint(b, e.Sent)
		appendUvarint(b, e.Recv)
	}
	endSection(b, off, secCounters3)
}

// decodeCounters3 decodes the CTR3 section of an image whose META
// section (rank and rank count) has already been decoded into img. It
// refuses, as ErrCorrupt, a list the runtime cannot have produced: a
// peer outside [0, NRanks), peers not strictly ascending, or an entry
// with no message either way.
func decodeCounters3(img *Image, payload []byte) error {
	r := &fieldReader{data: payload}
	n := r.count(minPeerCountBytes)
	if r.bad || n > img.NRanks {
		return badSection(secCounters3)
	}
	var c Counters
	if n > 0 {
		c = make(Counters, n)
	}
	nranks := int64(img.NRanks)
	for i := range c {
		var peer int64
		var why string
		if i == 0 {
			// Bound the distance before adding: a damaged one may be
			// anything.
			d := r.varint()
			if d < -nranks || d >= nranks {
				d = nranks
			}
			peer = int64(img.Rank) + d
		} else {
			prev := int64(c[i-1].Peer)
			switch gap := r.uvarint(); {
			case gap == 0:
				why = fmt.Sprintf("peer %d repeated", prev)
			case gap > math.MaxInt64:
				why = fmt.Sprintf("peer after %d descends", prev)
			default:
				peer = prev + int64(min(gap, uint64(nranks)))
			}
		}
		e := &c[i]
		e.Sent, e.Recv = r.uvarint(), r.uvarint()
		switch {
		case r.bad:
			return badSection(secCounters3)
		case why != "":
		case peer < 0 || peer >= nranks:
			why = fmt.Sprintf("peer %d outside a %d-rank job", peer, nranks)
		case e.Sent == 0 && e.Recv == 0:
			why = fmt.Sprintf("peer %d has no messages", peer)
		}
		if why != "" {
			return fmt.Errorf("ckptimg: malformed %s section: %s (%w)", tagName(secCounters3), why, ErrCorrupt)
		}
		e.Peer = int(peer)
	}
	if !r.done() {
		return badSection(secCounters3)
	}
	img.Counters = c
	return nil
}
