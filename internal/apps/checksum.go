package apps

import "strconv"

// digest is the running value of a Checksum: 64-bit FNV-1a over the
// text the checksum prints. Every value, header line included, is
// formatted by strconv into a buffer on the stack, so a Checksum costs
// no heap object. The text is byte for byte what fmt's "%d" and "%.Ne"
// print, so every checksum keeps the value it had when each line went
// through fmt.Fprintf into hash/fnv.
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

// str hashes s. It and the methods below return d, so that a header
// line reads as one chain of its fields.
func (d *digest) str(s string) *digest {
	for i := 0; i < len(s); i++ {
		d.sum ^= uint64(s[i])
		d.sum *= fnvPrime64
	}
	return d
}

// exp hashes v as "%.<prec>e" followed by sep.
func (d *digest) exp(v float64, prec int, sep byte) *digest {
	d.write(append(strconv.AppendFloat(d.buf[:0], v, 'e', prec, 64), sep))
	return d
}

// float hashes v as "%.10e" followed by sep.
func (d *digest) float(v float64, sep byte) *digest { return d.exp(v, 10, sep) }

// int hashes v as "%d" followed by sep.
func (d *digest) int(v int64, sep byte) *digest {
	d.write(append(strconv.AppendInt(d.buf[:0], v, 10), sep))
	return d
}
