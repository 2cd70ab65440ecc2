package apps

import (
	"fmt"
	"strconv"
)

// digest is the running value of a Checksum: 64-bit FNV-1a over the
// text the checksum prints. Each sampled value is formatted by strconv
// into a buffer on the stack, so a Checksum costs no heap object per
// value. The text is byte for byte what fmt's "%.10e" and "%d" print, so
// every checksum keeps the value it had when each value went through
// fmt.Fprintf into hash/fnv.
type digest struct {
	sum uint64
	buf [96]byte
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newDigest() digest { return digest{sum: fnvOffset64} }

func (d *digest) write(p []byte) {
	for _, c := range p {
		d.sum ^= uint64(c)
		d.sum *= fnvPrime64
	}
}

// header hashes the once-per-call line, formatted by fmt.
func (d *digest) header(format string, args ...any) {
	d.write(fmt.Appendf(d.buf[:0], format, args...))
}

// float hashes v as "%.10e" followed by sep.
func (d *digest) float(v float64, sep byte) {
	d.write(append(strconv.AppendFloat(d.buf[:0], v, 'e', 10, 64), sep))
}

// int hashes v as "%d" followed by sep.
func (d *digest) int(v int64, sep byte) {
	d.write(append(strconv.AppendInt(d.buf[:0], v, 10), sep))
}
