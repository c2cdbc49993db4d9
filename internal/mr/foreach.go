package mr

import "sync"

// Grain is the fewest items a share of a finish step is given: a goroutine
// pays for itself only over that much work. WC emits thousands of distinct
// keys and MM millions of cells, so their finishes fan out; a stream
// window's 1,024 keys, HG's 768 or LR's handful run on the caller, where
// they cannot queue behind the workers the same call just woke.
const Grain = 4096

// shares is the width a finish step over items items gets at width: one
// share per Grain items, at most width, at least one.
func shares(items, width int) int { return max(1, min(width, (items+Grain-1)/Grain)) }

// ForEach calls body over [0, n) cut into width contiguous shares, share w
// being [n*w/width, n*(w+1)/width), and returns once every share is done.
// The caller runs share 0 itself and one goroutine runs each other share,
// so a width of 1 or less runs body(0, n) inline and starts no goroutine;
// n = 0 calls nothing. A panic in any share is recovered and returned as a
// *PanicError naming worker (the first one, if several shares panic),
// after every share has been joined.
func ForEach(n, width int, worker string, body func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	width = max(1, min(width, n))
	var first FirstError
	run := func(lo, hi int) {
		defer func() {
			if v := recover(); v != nil {
				first.Set(&PanicError{Engine: "mr", Worker: worker, Value: v})
			}
		}()
		body(lo, hi)
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(n*w/width, n*(w+1)/width)
		}()
	}
	run(0, n/width)
	wg.Wait()
	return first.Get()
}
