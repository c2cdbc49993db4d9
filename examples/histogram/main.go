// Histogram: the paper's image-processing benchmark app on the public
// API. Reads a binary PPM (P6) image when given one, otherwise generates
// synthetic pixel data, and prints per-channel 16-bucket histograms.
//
// Histogram is the suite's canonical *light* workload — three almost-free
// emissions per pixel — which is why the paper finds it unsuited to the
// decoupled runtime with default containers (Fig. 8a): run with -compare
// on a multicore machine to see the effect live.
//
//	go run ./examples/histogram -mb 16 -compare
//	go run ./examples/histogram -ppm image.ppm
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"
)

import "ramr"

const buckets = 3 * 256

// readPPM loads the pixel bytes of a binary P6 image.
func readPPM(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var magic string
	var w, h, maxv int
	if _, err := fmt.Fscan(r, &magic, &w, &h, &maxv); err != nil {
		return nil, fmt.Errorf("parse PPM header: %w", err)
	}
	if magic != "P6" || maxv != 255 {
		return nil, fmt.Errorf("want binary P6 with maxval 255, got %s/%d", magic, maxv)
	}
	if _, err := r.ReadByte(); err != nil { // single whitespace after header
		return nil, err
	}
	px := make([]byte, w*h*3)
	if _, err := io.ReadFull(r, px); err != nil {
		return nil, fmt.Errorf("read pixels: %w", err)
	}
	return px, nil
}

func synthetic(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	px := make([]byte, n-n%3)
	for i := 0; i+2 < len(px); i += 3 {
		px[i] = byte(rng.Intn(220))
		px[i+1] = byte(rng.Intn(256))
		px[i+2] = byte(40 + rng.Intn(215))
	}
	return px
}

func chunk(px []byte) [][]byte {
	const split = 48 << 10 // multiple of 3
	var out [][]byte
	for len(px) > 0 {
		n := split
		if n > len(px) {
			n = len(px)
		}
		out = append(out, px[:n])
		px = px[n:]
	}
	return out
}

func main() {
	mb := flag.Int("mb", 8, "synthetic pixel volume in MiB (ignored with -ppm)")
	ppm := flag.String("ppm", "", "binary P6 image to histogram")
	compare := flag.Bool("compare", false, "also run the Phoenix++ baseline")
	flag.Parse()

	var px []byte
	if *ppm != "" {
		var err error
		px, err = readPPM(*ppm)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		px = synthetic(*mb << 20)
	}

	spec := &ramr.Spec[[]byte, int, int, int]{
		Name:   "histogram",
		Splits: chunk(px),
		Map: func(b []byte, emit func(int, int)) {
			for i := 0; i+2 < len(b); i += 3 {
				emit(int(b[i]), 1)
				emit(256+int(b[i+1]), 1)
				emit(512+int(b[i+2]), 1)
			}
		},
		Combine:      ramr.Sum[int](),
		Reduce:       ramr.IdentityReduce[int, int](),
		NewContainer: ramr.FixedArrayFactory[int](buckets),
		Less:         func(a, b int) bool { return a < b },
	}

	cfg := ramr.DefaultConfig()
	start := time.Now()
	res, err := ramr.Run(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ramrTime := time.Since(start)

	counts := make([]int, buckets)
	for _, p := range res.Pairs {
		counts[p.Key] = p.Value
	}
	for ch, name := range []string{"R", "G", "B"} {
		fmt.Printf("%s: ", name)
		// 16 coarse buckets of 16 intensities each, log-ish bar.
		for b := 0; b < 16; b++ {
			sum := 0
			for v := 0; v < 16; v++ {
				sum += counts[ch*256+b*16+v]
			}
			fmt.Print(bar(sum, len(px)/3))
		}
		fmt.Println()
	}
	fmt.Printf("RAMR: %d pixels in %v (%s)\n", len(px)/3, ramrTime, res.Phases)

	if *compare {
		start = time.Now()
		if _, err := ramr.RunPhoenix(spec, cfg); err != nil {
			log.Fatal(err)
		}
		phx := time.Since(start)
		fmt.Printf("Phoenix++: %v — speedup %.2fx (the paper expects <1 here: HG is a light workload)\n",
			phx, phx.Seconds()/ramrTime.Seconds())
	}
}

// bar renders a coarse density glyph for n of total.
func bar(n, total int) string {
	if total == 0 {
		return " "
	}
	glyphs := []string{" ", ".", ":", "+", "*", "#"}
	f := float64(n) / float64(total) * 16 * float64(len(glyphs)-1)
	i := int(f)
	if i >= len(glyphs) {
		i = len(glyphs) - 1
	}
	return glyphs[i]
}
