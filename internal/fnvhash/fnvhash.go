// Package fnvhash is an inline, allocation-free FNV-1a used on the
// simulators' per-I/O hot paths (extent digests, inode placement), where
// hash/fnv + fmt would allocate a hasher and format buffers on every call.
//
// Both internal/vfs and internal/pfs compute their extent digests with
// Extent, which keeps the digests bit-identical across file systems —
// end-state comparisons between a local FS and the parallel FS rely on
// that. Only hash *equality* is meaningful to callers.
package fnvhash

import "math"

// Offset64 is the FNV-1a 64-bit offset basis.
const Offset64 = 14695981039346656037

const prime64 = 1099511628211

// String folds s into an FNV-1a hash.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Int64 folds v's little-endian bytes into an FNV-1a hash.
func Int64(h uint64, v int64) uint64 {
	return Uint64(h, uint64(v))
}

// Uint64 folds v's little-endian bytes into an FNV-1a hash.
func Uint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

// Float64 folds v's IEEE-754 bit pattern into an FNV-1a hash. Only hash
// equality is meaningful; distinct bit patterns of equal values (+0/-0)
// hash differently.
func Float64(h uint64, v float64) uint64 {
	return Uint64(h, math.Float64bits(v))
}

// Bool folds one byte (0 or 1) into an FNV-1a hash.
func Bool(h uint64, v bool) uint64 {
	b := uint64(0)
	if v {
		b = 1
	}
	h ^= b
	h *= prime64
	return h
}

// Extent digests one written extent of path: n bytes at offset off. A
// file's end-state digest is the XOR of its extents' digests.
func Extent(path string, off, n int64) uint64 {
	return Int64(Int64(String(Offset64, path), off), n)
}
