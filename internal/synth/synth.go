// Package synth implements the paper's workload-aware synthetic test-suite
// (§III-C): MapReduce jobs whose map and combine kernels have independently
// configurable *type* (CPU- or memory-intensive) and *intensity*
// (instructions per element), used to chart when the decoupled RAMR
// pipeline wins (Fig. 4) without the confounds of a real application.
//
// Following the paper: "A CPU-intensive workload is generated by combining
// computationally heavy trigonometric and exponential functions, which
// access contiguous, small datasets. On the contrary, to generate a
// memory-intensive workload, computationally light operations are applied
// on wide datasets with non-regular access pattern."
package synth

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stats"
	"ramr/internal/workloads"
)

// Kind is the workload type of one kernel.
type Kind int

const (
	// CPU marks a compute-bound kernel (trig/exp chains over a few
	// registers).
	CPU Kind = iota
	// Memory marks a memory-bound kernel (dependent loads scattered
	// over a wide array).
	Memory
)

// String names the kind.
func (k Kind) String() string {
	if k == CPU {
		return "cpu"
	}
	return "memory"
}

// ParseKind maps a kernel kind name, case-insensitively, to its kind; the
// empty name is CPU.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "", "cpu":
		return CPU, nil
	case "memory", "mem":
		return Memory, nil
	default:
		return 0, fmt.Errorf("unknown kernel kind %q (want cpu|memory)", s)
	}
}

// ParseKernel maps "kind:intensity" (e.g. cpu:60) to a kernel.
func ParseKernel(s string) (Kernel, error) {
	kind, intensity, ok := strings.Cut(s, ":")
	if !ok {
		return Kernel{}, fmt.Errorf("want kind:intensity (e.g. cpu:60), got %q", s)
	}
	n, err := strconv.Atoi(intensity)
	if err != nil || n < 0 {
		return Kernel{}, fmt.Errorf("bad intensity %q", intensity)
	}
	k, err := ParseKind(kind)
	if err != nil {
		return Kernel{}, err
	}
	return Kernel{Kind: k, Intensity: n}, nil
}

// Kernel is one configurable workload: its kind and its intensity in
// iterations per invocation (each iteration is a handful of instructions,
// so intensity is proportional to the paper's "instructions per task"
// x-axis).
type Kernel struct {
	Kind      Kind
	Intensity int
}

// wideWords is the size of the shared wide dataset the memory kernel
// wanders over: 4 Mi x 8 B = 32 MB, far beyond any L2, so almost every dependent
// load misses.
const wideWords = 1 << 22

// wide is the shared read-only array for the memory kernel, built on first
// use: a process that never runs the kernel, like every one that only links
// the package, never holds its 32 MB. Read-only sharing across workers is
// deliberate: it maximizes cache pressure without write contention, like
// the lookup tables of real combine-heavy workloads. newWide places it
// (wide_linux.go maps it outside the Go heap, wide_other.go allocates it on
// the heap); it is never freed.
var wide = sync.OnceValue(func() []int64 {
	w := newWide()
	var h uint64 = 0x9e3779b97f4a7c15
	for i := range w {
		h = h*6364136223846793005 + 1442695040888963407
		w[i] = int64(h)
	}
	return w
})

// offHeap counts the bytes newWide mapped outside the Go heap.
var offHeap atomic.Int64

// OffHeapBytes reports the bytes the package holds outside the Go heap:
// the memory kernel's table once built where it is mapped off the heap, 0
// before, and 0 where it is a heap slice. The GC neither scans nor counts
// them, so they appear in the process's resident set but in no heap
// figure.
func OffHeapBytes() int64 { return offHeap.Load() }

// runCPU burns iters iterations of trig/exp arithmetic seeded by x and
// returns a value dependent on all of it, so nothing dead-code eliminates.
func runCPU(x float64, iters int) float64 {
	v := x
	for i := 0; i < iters; i++ {
		v = math.Sin(v)*1.0625 + math.Exp(-v*v)*0.5 + 0.03125
	}
	return v
}

// runMemory performs iters dependent pseudo-random loads over the wide
// array, returning a checksum the caller must consume.
func runMemory(start uint64, iters int) uint64 {
	h, w := start|1, wide()
	var s uint64
	for i := 0; i < iters; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		s += uint64(w[(h>>17)&(wideWords-1)])
	}
	return s
}

// Run executes kernel k seeded by seed, returning a data-dependent token.
func (k Kernel) Run(seed uint64) uint64 {
	switch k.Kind {
	case CPU:
		f := runCPU(float64(seed%1024)/1024, k.Intensity)
		return uint64(int64(f * 1e6))
	default:
		return runMemory(seed, k.Intensity)
	}
}

// Params configures one synthetic job instance.
type Params struct {
	// Elements is the number of input elements (one emission each).
	Elements int
	// Keys is the intermediate key-range width.
	Keys int
	// MapKernel runs once per element inside the map function.
	MapKernel Kernel
	// CombineKernel runs once per combine invocation — i.e. on the
	// combiner thread under RAMR, fused into the mapper under
	// Phoenix++.
	CombineKernel Kernel
	// SplitElements is the number of elements per input split.
	SplitElements int
	// Skew, when > 1, is the Zipf exponent shaping the input: split
	// sizes are drawn Zipfian (capped at 8x SplitElements) with the
	// heavy splits clustered at the front of the input — the contiguous
	// range the engine seeds to locality group 0, so the skew is exactly
	// what chunked work stealing must drain — and intermediate keys are
	// drawn Zipfian over the key range instead of round-robin, piling
	// combine work onto a few hot keys. 0 keeps the uniform input.
	Skew float64
}

// DefaultParams returns the Fig. 4 base configuration: a fixed
// CPU-intensive map and a memory-intensive combine whose intensity the
// experiment sweeps.
func DefaultParams() Params {
	return Params{
		Elements:      200_000,
		Keys:          1024,
		MapKernel:     Kernel{CPU, 60},
		CombineKernel: Kernel{Memory, 20},
		SplitElements: 512,
	}
}

// NewJob builds the synthetic job, its skew key table on GOMAXPROCS
// goroutines. The value flowing through the pipeline carries the kernels'
// checksums so no work is optimizable away; the final digest is
// deterministic for a fixed seed *and engine* (combine order differs across
// engines, but the value algebra is associative and commutative — uint64
// addition — so outputs agree exactly).
func NewJob(p Params, seed int64) *workloads.Job {
	j, _ := Build(p, seed, nil, 0) // only a shard spec is refused
	return j
}

// Build is NewJob — shard sh of it when sh is non-nil: the split ranges
// are derived deterministically from the seed, the skew key table is drawn
// for the shard's subset only, and the job exports its key→sum container
// as RunInfo.Partial for the cluster coordinator to merge — drawing the
// skew key table on width goroutines (width < 1: GOMAXPROCS; see
// workloads.FillSplits).
func Build(p Params, seed int64, sh *workloads.ShardSpec, width int) (*workloads.Job, error) {
	if sh != nil {
		if err := sh.Validate(); err != nil {
			return nil, fmt.Errorf("synth: shard: %v", err)
		}
	}
	p = p.defaulted()
	splits, keyTab := input(p, seed, sh, width)
	inputDesc := fmt.Sprintf("%d elements, %d keys", p.Elements, p.Keys)
	if p.Skew > 1 {
		inputDesc += fmt.Sprintf(", zipf s=%.2f", p.Skew)
	}
	j := &workloads.Job{
		App: "SYNTH",
		FullName: fmt.Sprintf("synthetic map=%v/%d combine=%v/%d",
			p.MapKernel.Kind, p.MapKernel.Intensity, p.CombineKernel.Kind, p.CombineKernel.Intensity),
		Container: container.KindFixedArray,
		InputDesc: inputDesc,
	}
	return workloads.BindSpec(j, spec(p, seed, splits, keyTab), sh, workloads.SynthPairDigest, func(pairs []mr.Pair[int, uint64]) *workloads.Partial {
		return workloads.IntPartial("SYNTH", pairs)
	}), nil
}

// defaulted is p with a usable split size and key range.
func (p Params) defaulted() Params {
	if p.SplitElements < 1 {
		p.SplitElements = 512
	}
	if p.Keys < 1 {
		p.Keys = 1
	}
	return p
}

// spec is the synthetic algebra over splits, of a batch job or a shard, or
// of a stream session (splits nil: they arrive in chunks). Element e's key
// is keyTab[e] on a skewed input and e%Keys on a uniform one (keyTab nil).
func spec(p Params, seed int64, splits [][2]int, keyTab []int32) *mr.Spec[[2]int, int, uint64, uint64] {
	mk, ck := p.MapKernel, p.CombineKernel
	keys := p.Keys
	s64 := uint64(seed)
	return &mr.Spec[[2]int, int, uint64, uint64]{
		Name:   "SYNTH",
		Splits: splits,
		Map: func(rng [2]int, emit func(int, uint64)) {
			for e := rng[0]; e < rng[1]; e++ {
				tok := mk.Run(uint64(e) ^ s64)
				k := e % keys
				if keyTab != nil {
					k = int(keyTab[e])
				}
				emit(k, tok+1)
			}
		},
		Combine: func(a, b uint64) uint64 {
			// The combine kernel models the per-update work of a
			// heavy container (hashing, scattered accumulator
			// access). Its checksum is discarded so the combine
			// stays associative and commutative (plain uint64
			// addition) and both engines produce identical output;
			// the kernel call itself cannot be eliminated because
			// runCPU/runMemory are too large to inline.
			_ = ck.Run(a ^ b)
			return a + b
		},
		Reduce:       mr.IdentityReduce[int, uint64](),
		NewContainer: func() container.Container[int, uint64] { return container.NewFixedArray[uint64](keys) },
		Less:         func(a, b int) bool { return a < b },
	}
}

// input is the job's generated input: the split ranges shard sh owns (all
// of them when sh is nil) and, for a skewed job, the per-element key table
// drawn on width goroutines (nil for a uniform job, whose keys are e%Keys).
func input(p Params, seed int64, sh *workloads.ShardSpec, width int) ([][2]int, []int32) {
	var splits [][2]int
	if p.Skew > 1 {
		splits = skewedSplits(p, seed)
	} else {
		for lo := 0; lo < p.Elements; lo += p.SplitElements {
			splits = append(splits, [2]int{lo, min(lo+p.SplitElements, p.Elements)})
		}
	}
	if sh != nil {
		splits = workloads.ShardSplits(splits, *sh)
	}
	if p.Skew <= 1 {
		return splits, nil
	}
	return splits, keyTable(p, seed, splits, width)
}

// keyTable draws the skewed job's per-element keys for the given splits
// (ascending, as skewedSplits and ShardSplits leave them) on width
// goroutines. The table is built once at job construction, so Map stays
// pure and both engines see identical emissions for a fixed seed. A
// split's keys come from the "synth-keys" substream its first element
// names, whatever shard or run it lands in, so a shard draws the keys of
// its own ranges only (the rest of the table stays zero and is never read)
// and every width draws the same keys. The runs cut the element range, not
// the split list: the heavy splits sit at the front, so equal split counts
// would hand one goroutine nearly all the draws.
func keyTable(p Params, seed int64, splits [][2]int, width int) []int32 {
	keyTab := make([]int32, p.Elements)
	workloads.FillSplits(p.Elements, width, func(lo, hi int) {
		src := stats.NewStream(seed, "synth-keys")
		z := stats.NewStreamZipf(src, p.Skew, uint64(p.Keys))
		k := sort.Search(len(splits), func(k int) bool { return splits[k][0] >= lo })
		for ; k < len(splits) && splits[k][0] < hi; k++ {
			src.Seek(splits[k][0])
			for e := splits[k][0]; e < splits[k][1]; e++ {
				keyTab[e] = int32(z.Next())
			}
		}
	})
	return keyTab
}

// skewedSplits partitions [0, Elements) into splits whose sizes follow a
// Zipf distribution with exponent p.Skew: most splits are small, a few
// are up to 8x SplitElements. The cap keeps every split individually
// stealable (an uncapped head split could swallow the whole input, and
// no steal granularity can rebalance one indivisible task). Sizes are
// sorted descending so the heavy splits occupy the front of the input —
// the contiguous range weighted seeding hands to group 0.
func skewedSplits(p Params, seed int64) [][2]int {
	capSize := 8 * p.SplitElements
	z := stats.NewZipf(stats.Rng(seed, "synth-splits"), p.Skew, uint64(capSize))
	var sizes []int
	for left := p.Elements; left > 0; {
		sz := 1 + int(z.Next())
		if sz > left {
			sz = left
		}
		sizes = append(sizes, sz)
		left -= sz
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	splits := make([][2]int, len(sizes))
	lo := 0
	for i, sz := range sizes {
		splits[i] = [2]int{lo, lo + sz}
		lo += sz
	}
	return splits
}
