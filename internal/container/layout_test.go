package container

import (
	"fmt"
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
// it reads. The regular hash container's Go map is the runtime's to lay
// out; what is ours are the slabs the keys and the accumulators live in.
func layoutOf(c Container[int, int]) (written, read []span) {
	switch c := c.(type) {
	case *FixedArray[int]:
		written = []span{spanOf("vals", c.vals), spanOf("present", c.present), fieldSpan("n", &c.n)}
		read = []span{fieldSpan("vals header", &c.vals), fieldSpan("present header", &c.present)}
	case *FixedHash[int, int]:
		written = []span{spanOf("vals", c.vals), spanOf("state", c.state), fieldSpan("n", &c.n), fieldSpan("Probes", &c.Probes)}
		read = []span{spanOf("keys", c.keys), fieldSpan("hash", &c.hash), fieldSpan("keys header", &c.keys),
			fieldSpan("vals header", &c.vals), fieldSpan("state header", &c.state), fieldSpan("mask", &c.mask)}
	case *Hash[int, int]:
		written = []span{spanOf("vals", c.vals[:cap(c.vals)])}
		read = []span{spanOf("keys", c.keys), fieldSpan("index", &c.index), fieldSpan("keys header", &c.keys), fieldSpan("vals header", &c.vals)}
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
// array is 40 bytes — so they are the ones built here, and the regular hash
// container is grown past its first slab so the slab it grows into is
// checked too.
func TestContainersShareNoLine(t *testing.T) {
	const k = 8
	factories := map[Kind]Factory[int, int]{
		KindFixedArray: func() Container[int, int] { return NewFixedArray[int](5) },
		KindFixedHash:  func() Container[int, int] { return NewFixedHash[int, int](5, HashInt) },
		KindHash:       func() Container[int, int] { return NewHash[int, int]() },
	}
	for kind, factory := range factories {
		cs := make([]Container[int, int], k)
		for i := range cs {
			cs[i] = factory()
		}
		if kind == KindHash {
			for key := 0; key < 200; key++ {
				for _, c := range cs { // interleaved, so the grown slabs are neighbours too
					c.Update(key, 1, sum)
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

// TestFixedHashProbesPerBatch: counting probes in a local and adding them
// once per batch must leave the total what per-probe counting made it.
func TestFixedHashProbesPerBatch(t *testing.T) {
	kvs := make([]KV[int, int], 0, 4000)
	for i := 0; i < 4000; i++ {
		kvs = append(kvs, KV[int, int]{K: (i * 31) % 700, V: 1})
	}
	single := NewFixedHash[int, int](768, HashInt)
	for _, p := range kvs {
		single.Update(p.K, p.V, sum)
	}
	batched := NewFixedHash[int, int](768, HashInt)
	for lo := 0; lo < len(kvs); lo += 333 {
		batched.UpdateBatch(kvs[lo:min(lo+333, len(kvs))], sum)
	}
	if single.Probes == 0 || batched.Probes != single.Probes {
		t.Fatalf("UpdateBatch counted %d probes, Update %d", batched.Probes, single.Probes)
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
