package mpi

import (
	"encoding/binary"
	"math"
)

// Buffer helpers: the simulated ABI passes message payloads as packed
// little-endian byte slices, so applications and reduction operations
// need cheap conversions between Go numeric slices and wire bytes.

// Float64Bytes encodes a []float64 into a packed byte slice.
func Float64Bytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// PutFloat64s encodes v into b, which must hold at least 8*len(v) bytes.
func PutFloat64s(b []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// Float64s decodes a packed byte slice into a []float64.
func Float64s(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	GetFloat64s(b, v)
	return v
}

// GetFloat64s decodes b into v, which must hold at least len(b)/8 values.
func GetFloat64s(b []byte, v []float64) {
	n := len(b) / 8
	for i := 0; i < n; i++ {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Int64Bytes encodes a []int64 into a packed byte slice.
func Int64Bytes(v []int64) []byte {
	b := make([]byte, 8*len(v))
	PutInt64s(b, v)
	return b
}

// PutInt64s encodes v into b, which must hold at least 8*len(v) bytes.
func PutInt64s(b []byte, v []int64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// Int64s decodes a packed byte slice into a []int64.
func Int64s(b []byte) []int64 {
	v := make([]int64, len(b)/8)
	GetInt64s(b, v)
	return v
}

// GetInt64s decodes b into v, which must hold at least len(b)/8 values.
func GetInt64s(b []byte, v []int64) {
	n := len(b) / 8
	for i := 0; i < n; i++ {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Int32Bytes encodes a []int32 into a packed byte slice.
func Int32Bytes(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

// Int32s decodes a packed byte slice into a []int32.
func Int32s(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}
