package container

import (
	"reflect"
	"slices"
)

// Number is a value type Sum adds: each is one the containers' folds add
// inline.
type Number interface {
	int | int64 | uint64 | float64
}

// Sum returns the additive combine, a + b. Use it when the combine is
// addition: a container's Fold recognises it and folds with an inline +=,
// where any other combine costs a call per pair.
//
// Sum is not inlined, so the closure it returns has one code pointer per
// type shape wherever it is called from: that pointer is how Fold tells it
// from a closure that merely adds.
//
//go:noinline
func Sum[V Number]() Combine[V] {
	return func(a, b V) V { return a + b }
}

// code returns f's code pointer; 0 for a nil func.
func code(f any) uintptr { return reflect.ValueOf(f).Pointer() }

// The code pointers of the functions the folds recognise, taken once: Sum
// for each Number, the identity int hashers and HashString.
var (
	sums       = []uintptr{code(Sum[int]()), code(Sum[int64]()), code(Sum[uint64]()), code(Sum[float64]())}
	identities = []uintptr{code(HashInt), code(HashUint64)}
	wyhash     = []uintptr{code(HashString)}
)

// is reports whether f's code is one of fns. A func value's type fixes its
// argument types, so a Combine[V] whose code is one of sums is Sum[V], and
// a Hasher[K] whose code is one of identities is K's identity hasher.
func is(f any, fns []uintptr) bool { return slices.Contains(fns, code(f)) }
