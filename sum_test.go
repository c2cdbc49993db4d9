package ramr_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"ramr"
	"ramr/internal/container"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/workloads"
)

// foldCode is the code pointer of the fold c builds under combine.
func foldCode[K comparable, V any](c container.Container[K, V], combine container.Combine[V]) uintptr {
	var n uint64
	return reflect.ValueOf(c.Fold(combine, &n)).Pointer()
}

// TestSumRecognised: the Sum, HashInt and HashString a caller reaches
// through the public API and the job model are the ones the containers
// recognise, so a fold built under them is container.Sum's add fold — and,
// on a fixed-hash table under ramr.HashInt, the fold that probes from the
// key without calling its hasher; a table handed ramr.HashString seeds
// it. A literal a + b closure and a
// fault-injection wrapper of Sum take the generic fold, and all three
// give the same output; the wrapper still fires its PanicCombine.
func TestSumRecognised(t *testing.T) {
	plus := func(a, b int) int { return a + b }
	for name, mk := range map[string]container.Factory[int, int]{
		"array":      ramr.FixedArrayFactory[int](64),
		"fixed-hash": ramr.FixedHashFactory[int, int](64, ramr.HashInt),
		"hash":       ramr.HashFactory[int, int](),
	} {
		add, generic := foldCode(mk(), container.Sum[int]()), foldCode(mk(), plus)
		if add == generic {
			t.Fatalf("%s: container.Sum's fold is the generic fold", name)
		}
		if got := foldCode(mk(), ramr.Sum[int]()); got != add {
			t.Errorf("%s: ramr.Sum[int] is not recognised", name)
		}
		in := faultinject.NewInjector(faultinject.Plan{Kind: faultinject.PanicCombine, Nth: 1}, 1, 1, nil)
		if got := foldCode(mk(), faultinject.WrapCombine(in, container.Sum[int]())); got != generic {
			t.Errorf("%s: a wrapped Sum took the add fold", name)
		}
	}
	for name, c := range map[string]container.Factory[int, int64]{
		"array":      ramr.FixedArrayFactory[int64](64),
		"fixed-hash": ramr.FixedHashFactory[int, int64](64, ramr.HashInt),
		"hash":       ramr.HashFactory[int, int64](),
	} {
		if foldCode(c(), mr.Sum[int64]()) != foldCode(c(), container.Sum[int64]()) ||
			foldCode(c(), mr.Sum[int64]()) == foldCode(c(), func(a, b int64) int64 { return a + b }) {
			t.Errorf("%s: mr.Sum[int64] is not recognised", name)
		}
	}
	identity := func(k int) uint64 { return uint64(k) }
	inline := foldCode(container.NewFixedHash[int, int](64, container.HashInt), container.Sum[int]())
	if foldCode(container.NewFixedHash[int, int](64, identity), container.Sum[int]()) == inline {
		t.Fatal("a fixed-hash table under an unrecognised hasher probes without calling it")
	}
	if foldCode(ramr.FixedHashFactory[int, int](64, ramr.HashInt)(), ramr.Sum[int]()) != inline {
		t.Error("ramr.HashInt is not recognised")
	}
	if reflect.ValueOf(ramr.HashString).Pointer() != reflect.ValueOf(container.HashString).Pointer() {
		t.Error("ramr.HashString is not container.HashString, so a table would not seed it")
	}

	// HG over both of its containers: the output is the same under Sum, a
	// literal a + b and a wrapped Sum that does not fire; one that fires
	// fails the run with its panic.
	px := workloads.GeneratePixels(64<<10, 1)
	cfg := ramr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = 2, 1
	for _, kind := range []container.Kind{container.KindFixedArray, container.KindFixedHash} {
		run := func(combine container.Combine[int]) ([]ramr.Pair[int, int], error) {
			spec := workloads.HistogramSpec(px, kind)
			spec.Combine = combine
			res, err := ramr.Run(spec, cfg)
			if err != nil {
				return nil, err
			}
			return res.Pairs, nil
		}
		want, err := run(container.Sum[int]())
		if err != nil {
			t.Fatal(err)
		}
		never := faultinject.NewInjector(faultinject.Plan{Kind: faultinject.PanicCombine, Nth: 1 << 62}, 1, 1, nil)
		for name, combine := range map[string]container.Combine[int]{
			"a + b":       func(a, b int) int { return a + b },
			"wrapped Sum": faultinject.WrapCombine(never, container.Sum[int]()),
		} {
			if got, err := run(combine); err != nil || !slices.Equal(got, want) {
				t.Errorf("HG/%v under %s: %d pairs, err %v; Sum gave %d pairs", kind, name, len(got), err, len(want))
			}
		}
		fires := faultinject.NewInjector(faultinject.Plan{Kind: faultinject.PanicCombine, Nth: 3}, 1, 1, nil)
		var pe *mr.PanicError
		if _, err := run(faultinject.WrapCombine(fires, container.Sum[int]())); !errors.As(err, &pe) || !fires.Fired() {
			t.Errorf("HG/%v: a wrapped Sum set to panic at its third call returned %v", kind, err)
		}
	}
}
