package container

import (
	"hash/maphash"
	"math/bits"
	"unsafe"
)

// Hasher maps a key to a 64-bit hash. NewFixedHash takes the hash function
// explicitly; NewHash picks one by key type (hasherFor). The table spreads
// the hash over its slots itself, so a hasher need not mix: it only has to
// tell keys apart.
type Hasher[K comparable] func(K) uint64

// HashInt returns k, as libstdc++'s std::hash<int> does: the table spreads
// the key over its slots, so dense or strided int keys need no mixing.
func HashInt(k int) uint64 { return uint64(k) }

// HashUint64 returns k, as HashInt does.
func HashUint64(k uint64) uint64 { return k }

// HashString hashes a string a word at a time, in the shape of wyhash's
// short-input path (github.com/wangyi-fudan/wyhash): a key of 4-16 bytes
// is two overlapping little-endian loads of 4 or 8 bytes, one of 1-3 bytes
// its first, middle and last bytes, and a longer one folds 16 bytes per
// step before its last 16 take the short path; one 64×64→128-bit multiply
// with the length finishes the hash. No key costs a byte loop. It is a
// table hash, not a format: nothing may store or compare its values across
// builds.
//
// Called on its own it mixes with wyhash's public secrets, so anyone can
// find keys that collide. A table handed HashString (recognised by its
// code pointer) hashes under a seed of its own instead (hashString), which
// a client choosing the keys cannot know.
func HashString(s string) uint64 { return hashString(s, unseeded) }

// seed is a string table's pair of keys, one XORed into each multiplicand
// of the mix, as wyhash's seeded form keys its own. It is a struct, not an
// array, so the compiler keeps it in registers.
type seed struct{ a, b uint64 }

// unseeded is HashString's own pair: wyhash's first two default secrets.
var unseeded = seed{wyp1, wyp0}

// seedOf derives a table's pair from r, a random draw; seedOf(0) is
// unseeded.
func seedOf(r uint64) seed { return seed{wyp1 ^ r, wyp0 ^ wymix(r, wyp1)} }

// hashString is HashString under the pair sd.
func hashString(s string, sd seed) uint64 {
	n := len(s)
	if n <= 16 {
		a, b := shortWords(s)
		return hashWords(a, b, n, sd)
	}
	acc := sd.b
	for p := s; len(p) > 16; p = p[16:] {
		acc = wymix(le64(p)^sd.a, le64(p[8:])^acc)
	}
	return wymix(le64(s[n-16:])^sd.a, le64(s[n-8:])^acc^uint64(n))
}

// shortWords returns the two words HashString loads from a key of at most
// 16 bytes. With the key's length they are the key itself: the loads
// together cover every byte, so two keys of one length are equal exactly
// when their words are. The loads are the machine's own (little-endian on
// the hosts this runs on), written so the function inlines into the folds.
func shortWords(s string) (a, b uint64) {
	n, p := len(s), unsafe.Pointer(unsafe.StringData(s))
	switch {
	case n >= 8:
		return *(*uint64)(p), *(*uint64)(unsafe.Add(p, n-8))
	case n >= 4:
		return uint64(*(*uint32)(p)), uint64(*(*uint32)(unsafe.Add(p, n-4)))
	case n > 0:
		return uint64(s[0])<<16 | uint64(s[n>>1])<<8 | uint64(s[n-1]), 0
	}
	return 0, 0
}

// hashWords is hashString of a key of n ≤ 16 bytes whose words are a, b.
func hashWords(a, b uint64, n int, sd seed) uint64 { return wymix(a^sd.a, b^sd.b^uint64(n)) }

// wyp0 and wyp1 are wyhash's first two default secrets.
const (
	wyp0 = 0xa0761d6478bd642f
	wyp1 = 0xe7037ed1a0b428db
)

// wymix folds the 128-bit product of a and b into 64 bits.
func wymix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// le64 loads s's first 8 bytes little-endian; the compiler makes it one load.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// le32 loads s's first 4 bytes little-endian.
func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// hasherFor is the hasher NewHash gives a K: HashString for string keys
// (seeded by the table), the identity for int and uint64 keys, and for
// any other key the runtime's own hash of comparable values under a seed
// drawn here.
func hasherFor[K comparable]() Hasher[K] {
	var h any
	switch any(*new(K)).(type) {
	case string:
		h = Hasher[string](HashString)
	case int:
		h = Hasher[int](HashInt)
	case uint64:
		h = Hasher[uint64](HashUint64)
	default:
		s := maphash.MakeSeed()
		return func(k K) uint64 { return maphash.Comparable(s, k) }
	}
	return h.(Hasher[K])
}
