package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// Zipf draws indices in [0, n) with a Zipfian frequency distribution,
// used by the synthetic corpus generators (word frequencies in natural
// text are famously Zipf-distributed). It draws exactly the values
// math/rand's Zipf(r, s, 1, n-1) draws, from the same Int63 values of r, so
// every generated input is the same bytes; only the cost differs.
//
// math/rand's sampler is Hörmann–Derflinger rejection-inversion: each round
// maps one r.Int63 value u to "accept k" or "reject" (draw again) through
// up to three Exp/Log pairs. That map is monotone in u, so for a key range up to
// zipfTableMaxN a table of the u at which its outcome changes answers a
// round with a guide-table lookup. A u within zipfGuard of a recorded
// change runs the round itself, so floating-point wobble of Exp and Log
// next to a change point never decides a draw.
//
// A sampler drawing from a *Stream (NewStreamZipf) reads the stream's
// Int63, Uint64()>>1, itself: the values rand.New(stream) would hand
// math/rand's Zipf, without the rand.Source interface call per round.
type Zipf struct {
	src *Stream    // non-nil: the rounds draw from it directly
	r   *rand.Rand // the rounds' source otherwise
	c   *zipfConsts
	t   *zipfTable // nil: every round runs the arithmetic
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s (> 1).
func NewZipf(r *rand.Rand, s float64, n uint64) *Zipf {
	z := newZipf(s, n)
	z.r = r
	return z
}

// NewStreamZipf returns the sampler NewZipf(rand.New(src), s, n) is, drawing
// from src directly: the same values from the same draws of src.
func NewStreamZipf(src *Stream, s float64, n uint64) *Zipf {
	z := newZipf(s, n)
	z.src = src
	return z
}

func newZipf(s float64, n uint64) *Zipf {
	if !(s > 1) {
		panic("stats: Zipf exponent must be > 1")
	}
	n = max(n, 1)
	c := newZipfConsts(s, n-1)
	return &Zipf{c: c, t: zipfTableFor(c, s, n)}
}

// Next draws the next index.
func (z *Zipf) Next() uint64 {
	for {
		var u int64
		if z.src != nil {
			u = int64(z.src.Uint64() >> 1)
		} else {
			u = z.r.Int63()
		}
		if float64(u)/(1<<63) == 1 {
			continue // rand.Float64 resamples this u too
		}
		if k, ok := z.round(u); ok {
			return k
		}
	}
}

// round is one rejection-inversion round on u: through the table when u
// is clear of every change point, through the arithmetic otherwise.
func (z *Zipf) round(u int64) (uint64, bool) {
	if t := z.t; t != nil {
		x := uint64(u)
		j := t.guide[x>>t.shift]
		for t.segs[j+1].lo <= x {
			j++
		}
		if s := t.segs[j]; x-s.lo >= zipfGuard && t.segs[j+1].lo-x > zipfGuard {
			return s.k, s.k != zipfReject
		}
	}
	k, ok := z.c.iterate(u)
	return uint64(k), ok
}

// zipfConsts are math/rand.Zipf's constants for v = 1, computed with its
// expressions (W. Hörmann, G. Derflinger: "Rejection-Inversion to Generate
// Variates from Monotone Discrete Distributions").
type zipfConsts struct {
	imax, v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64
}

func newZipfConsts(s float64, imax uint64) *zipfConsts {
	z := &zipfConsts{imax: float64(imax), v: 1, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *zipfConsts) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfConsts) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// iterate is one round of math/rand.(*Zipf).Uint64's loop, given the u its
// Float64 call read: the candidate k, and whether it is accepted.
func (z *zipfConsts) iterate(u int64) (float64, bool) {
	r := float64(u) / (1 << 63)
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return k, true
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
		return k, true
	}
	return k, false
}

const (
	// zipfTableMaxN is the largest key range that gets a table (WC draws
	// over 5000 words, skewed SYNTH over 4096-element split sizes); a
	// larger one runs every round's arithmetic.
	zipfTableMaxN = 1 << 13
	// zipfCacheCap bounds the tables held process-wide.
	zipfCacheCap = 8
	// zipfSlack bounds how far above its change point a boundary is
	// recorded; far inside zipfGuard.
	zipfSlack = 1 << 12
	// zipfGuard is how close to a change point (in Int63 units) a u must
	// be to run the arithmetic instead of the table.
	zipfGuard = 1 << 24
	// zipfTop is the first u that rand.Float64 maps to 1 and resamples.
	zipfTop = 1<<63 - 1<<9
	// zipfReject marks a segment of u whose round rejects.
	zipfReject = math.MaxUint64
)

// zipfSeg is a run of u, starting at lo, whose round has one outcome.
type zipfSeg struct{ lo, k uint64 }

type zipfTable struct {
	segs  []zipfSeg // ascending lo, from 0; a sentinel at zipfTop ends it
	guide []uint32  // guide[u>>shift] is the segment holding u>>shift<<shift
	shift uint
}

// zipfCache holds the tables by (s, n), at most zipfCacheCap of them. Each
// is built once, by its first user; concurrent users of its key wait for it.
var zipfCache = struct {
	sync.Mutex
	m map[[2]float64]func() *zipfTable
}{m: map[[2]float64]func() *zipfTable{}}

// zipfTableFor returns the (s, n) table, or nil for a key range too wide
// to tabulate.
func zipfTableFor(c *zipfConsts, s float64, n uint64) *zipfTable {
	if n > zipfTableMaxN {
		return nil
	}
	key := [2]float64{s, float64(n)}
	zipfCache.Lock()
	get := zipfCache.m[key]
	if get == nil {
		if len(zipfCache.m) == zipfCacheCap {
			clear(zipfCache.m) // a stream of distinct skews starts it over
		}
		get = sync.OnceValue(func() *zipfTable { return buildZipfTable(c) })
		zipfCache.m[key] = get
	}
	zipfCache.Unlock()
	return get()
}

// buildZipfTable walks u upward from 0, finding each change point of the
// round's outcome to within zipfSlack: the closed form puts it at
// u ≈ 2^63·(ur−hxm)/hx0minusHxm for the ur where the current k's acceptance
// (or its cell) ends, a bracket around that estimate widens until it holds
// the change, and bisection narrows it. A recorded boundary is the bracket's top, so the
// change lies less than zipfSlack below it, inside its guard band. The walk
// gives up (nil) if the outcome changes more often than k can.
func buildZipfTable(c *zipfConsts) *zipfTable {
	// Codes rise with u: 2(kmax−k) while k is accepted, one more while
	// its cell rejects.
	kmax := c.imax + 1
	at := func(u uint64) (int64, uint64) {
		k, ok := c.iterate(int64(u))
		if !ok {
			return 2*int64(kmax-k) + 1, zipfReject
		}
		return 2 * int64(kmax-k), uint64(k)
	}
	code := func(u uint64) int64 { cd, _ := at(u); return cd }
	// end estimates where the segment of code cur ends.
	end := func(cur int64) float64 {
		k := kmax - float64(cur/2)
		ur := c.h(k - 0.5)
		if cur%2 == 0 {
			ur = max(ur, min(c.h(k-c.s), c.h(k+0.5)-math.Exp(-math.Log(k+c.v)*c.q)))
		}
		return (ur - c.hxm) / c.hx0minusHxm * (1 << 63)
	}
	cur, k := at(0)
	segs := []zipfSeg{{0, k}}
	for lo, last := uint64(0), code(zipfTop-1); cur < last; {
		if len(segs) > 4*int(kmax)+8 {
			return nil
		}
		// Bracket the change around the estimate p, widening until the
		// bracket's ends straddle it (lo and zipfTop−1 always do).
		hi, p := uint64(zipfTop-1), lo+1
		if e := end(cur); e > 0 && e < float64(hi) {
			p = min(max(uint64(e), lo+1), hi)
		}
		for d := uint64(zipfSlack / 2); ; d *= 2 {
			a, b := lo, hi
			if p-lo > d {
				a = p - d
			}
			if hi-p > d {
				b = p + d
			}
			if (a == lo || code(a) <= cur) && (b == hi || code(b) > cur) {
				lo, hi = a, b
				break
			}
		}
		for hi-lo > zipfSlack {
			if mid := lo + (hi-lo)/2; code(mid) > cur {
				hi = mid
			} else {
				lo = mid
			}
		}
		cur, k = at(hi)
		segs = append(segs, zipfSeg{hi, k})
		lo = hi
	}
	segs = append(segs, zipfSeg{lo: zipfTop, k: zipfReject})
	width := bits.Len(uint(len(segs)))
	t := &zipfTable{segs: segs, guide: make([]uint32, 1<<width), shift: 63 - uint(width)}
	j := 0
	for i := range t.guide {
		for segs[j+1].lo <= uint64(i)<<t.shift {
			j++
		}
		t.guide[i] = uint32(j)
	}
	return t
}
