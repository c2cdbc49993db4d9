package container

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// span is a byte range of one container's memory: the words it writes on
// every update, or the ones it only reads there.
type span struct {
	what     string
	from, to uintptr // [from, to)
}

func spanOf[T any](what string, s []T) span {
	if len(s) == 0 {
		return span{what: what}
	}
	from := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{what, from, from + uintptr(len(s))*unsafe.Sizeof(s[0])}
}

func fieldSpan[T any](what string, p *T) span {
	from := uintptr(unsafe.Pointer(p))
	return span{what, from, from + unsafe.Sizeof(*p)}
}

// layoutOf splits a container's memory into what an update writes and what
// it reads.
func layoutOf[K comparable](c Container[K, int]) (written, read []span) {
	switch c := any(c).(type) {
	case *FixedArray[int]:
		written = []span{spanOf("vals", c.vals), spanOf("present", c.present), fieldSpan("n", &c.n)}
		read = []span{fieldSpan("vals header", &c.vals), fieldSpan("present header", &c.present)}
	case *Hash[K, int]:
		written = []span{spanOf("slots", c.slots), spanOf("strs", c.strs), spanOf("keys", c.keys), fieldSpan("n", &c.n)}
		read = []span{fieldSpan("hash", &c.hash), fieldSpan("seed", &c.seed), fieldSpan("slots header", &c.slots),
			fieldSpan("strs header", &c.strs), fieldSpan("keys header", &c.keys), fieldSpan("mask", &c.mask),
			fieldSpan("shift", &c.shift), fieldSpan("limit", &c.limit)}
	}
	return written, read
}

// sharesLine reports whether two byte ranges touch a common cache line.
func sharesLine(a, b span) bool {
	if a.from == a.to || b.from == b.to {
		return false
	}
	return a.from/line <= (b.to-1)/line && b.from/line <= (a.to-1)/line
}

// TestContainersShareNoLine is the false-sharing regression. The runtimes
// build their per-worker containers back to back from one factory, so the
// allocator hands them neighbouring addresses: whatever one container
// writes on every update must not sit in a cache line another container
// reads or writes, or two workers that share nothing by design invalidate
// each other's lines on every pair (EXPERIMENTS.md, "Work-conserving
// pipeline": HG/fixed-hash 185 ms against 48, LR 80 against 20, by
// allocation luck). Small key ranges are the case that bit — LR's whole
// array is 40 bytes — so they are the ones built here, and the growing
// tables are grown past their first slabs so the slabs they grow into are
// checked too. A string table writes its slots on every update, and its
// keys and count on an insert.
func TestContainersShareNoLine(t *testing.T) {
	shareNoLine(t, map[Kind]Factory[int, int]{
		KindFixedArray: func() Container[int, int] { return NewFixedArray[int](5) },
		KindFixedHash:  func() Container[int, int] { return NewFixedHash[int, int](5, HashInt) },
		KindHash:       func() Container[int, int] { return NewHash[int, int]() },
	}, func(i int) int { return i })
	shareNoLine(t, map[Kind]Factory[string, int]{
		KindFixedHash: func() Container[string, int] { return NewFixedHash[string, int](5, HashString) },
		KindHash:      func() Container[string, int] { return NewHash[string, int]() },
	}, strconv.Itoa)
}

// shareNoLine builds 8 containers of each factory, grows the growing ones
// to 200 keys, interleaved, so the grown slabs are neighbours too, and
// fails if any container's written span shares a line with another's.
func shareNoLine[K comparable](t *testing.T, factories map[Kind]Factory[K, int], key func(int) K) {
	t.Helper()
	const k = 8
	for kind, factory := range factories {
		cs := make([]Container[K, int], k)
		for i := range cs {
			cs[i] = factory()
		}
		if kind == KindHash {
			for i := 0; i < 200; i++ {
				for _, c := range cs {
					c.(*Hash[K, int]).Update(key(i), 1, sum)
				}
			}
		}
		for i, a := range cs {
			written, _ := layoutOf(a)
			if len(written) == 0 {
				t.Fatalf("%v: no layout known for %T", kind, a)
			}
			for j, b := range cs {
				if i == j {
					continue
				}
				bw, br := layoutOf(b)
				for _, w := range written {
					for _, o := range append(bw, br...) {
						if sharesLine(w, o) {
							t.Fatalf("%v: container %d's %s [%#x,%#x) shares a cache line with container %d's %s [%#x,%#x)",
								kind, i, w.what, w.from, w.to, j, o.what, o.from, o.to)
						}
					}
				}
			}
		}
	}
}

// BenchmarkContainersSideBySide is the two-writer measurement behind the
// layout rule: two goroutines, each folding the same pairs into its own
// factory-built container, as two Phoenix++ workers or a combiner and a
// folding mapper do. With the containers' hot words on shared lines the
// pair costs several times what it costs alone, or not, by allocation
// luck — so each sub-benchmark builds fresh containers every iteration and
// the spread between iterations is the symptom.
func BenchmarkContainersSideBySide(b *testing.B) {
	const updates = 1 << 22
	cases := []struct {
		name    string
		keys    int
		factory Factory[int, int]
	}{
		{"fixedarray-5keys", 5, func() Container[int, int] { return NewFixedArray[int](5) }},
		{"fixedhash-768keys", 768, func() Container[int, int] { return NewFixedHash[int, int](768, HashInt) }},
		{"hash-768keys", 768, func() Container[int, int] { return NewHash[int, int]() }},
	}
	for _, tc := range cases {
		kvs := make([]KV[int, int], 1000)
		for i := range kvs {
			kvs[i] = KV[int, int]{K: (i * 7) % tc.keys, V: 1}
		}
		for _, writers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/writers=%d", tc.name, writers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cs := make([]Container[int, int], writers)
					for w := range cs {
						cs[w] = tc.factory()
					}
					var wg sync.WaitGroup
					for _, c := range cs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for n := 0; n < updates; n += len(kvs) {
								c.UpdateBatch(kvs, sum)
							}
						}()
					}
					wg.Wait()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/updates, "ns/pair")
			})
		}
	}
}
