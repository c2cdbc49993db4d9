package workloads

import (
	"fmt"
	"strings"

	"ramr/internal/container"
)

// Platform selects the evaluation platform whose Table I column scales the
// inputs.
type Platform int

const (
	// HWL is the Haswell server column of Table I.
	HWL Platform = iota
	// PHI is the Xeon Phi column of Table I.
	PHI
)

// String names the platform as in Table I.
func (p Platform) String() string {
	if p == HWL {
		return "HWL"
	}
	return "PHI"
}

// ParsePlatform maps a platform name, case-insensitively, to its Table I
// column; the empty name is HWL.
func ParsePlatform(s string) (Platform, error) {
	switch strings.ToLower(s) {
	case "", "hwl", "haswell":
		return HWL, nil
	case "phi", "xeon-phi":
		return PHI, nil
	default:
		return 0, fmt.Errorf("unknown platform %q (want hwl|phi)", s)
	}
}

// SizeClass is the input flavor of Table I.
type SizeClass int

const (
	// Small is Table I's Small flavor.
	Small SizeClass = iota
	// Medium is Table I's Medium flavor.
	Medium
	// Large is Table I's Large flavor.
	Large
)

// String names the size class as in Table I.
func (s SizeClass) String() string {
	switch s {
	case Small:
		return "Small"
	case Medium:
		return "Medium"
	default:
		return "Large"
	}
}

// ParseSizeClass maps a size class name, case-insensitively, to its
// flavor; the empty name is Small.
func ParseSizeClass(s string) (SizeClass, error) {
	switch strings.ToLower(s) {
	case "", "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	default:
		return 0, fmt.Errorf("unknown size class %q (want small|medium|large)", s)
	}
}

// SizeClasses lists the three flavors in Table I order.
func SizeClasses() []SizeClass { return []SizeClass{Small, Medium, Large} }

// InputSpec carries both the paper's original input size (for the Table I
// report) and the scaled parameters this reproduction actually generates.
type InputSpec struct {
	App      string
	Platform Platform
	Class    SizeClass
	// Paper is the size as printed in Table I ("400MB", "2K x 2K", ...).
	Paper string
	// Params are the generator parameters actually used here.
	Params Params
}

// Params is the union of all generator parameters; each app reads the
// fields it needs.
type Params struct {
	Bytes  int // WC, HG: input volume in bytes
	Points int // LR, KM: number of input points
	Dims   int // KM: point dimensionality
	K      int // KM: number of clusters
	N      int // PCA: matrix dimension (N x N)
	RowsA  int // MM: A is RowsA x Inner
	Inner  int // MM: shared dimension
	ColsB  int // MM: B is Inner x ColsB
}

// scale reduces the paper's sizes to CI scale. The divisor keeps every
// Table I *ratio* intact: Large/Small stays 4x for WC on Haswell, etc.
const (
	wcScale  = 100 // bytes divisor: 400 MB -> 4 MB
	hgScale  = 100 // bytes divisor: 200 MB -> 2 MB
	lrScale  = 100 // points divisor: 400K pts -> 4K pts... see table
	mmScale  = 8   // per-dimension divisor: 2K -> 256
	pcaScale = 5   // per-dimension divisor: 500 -> 100
)

// Inputs returns the full Table I grid with scaled parameters.
func Inputs(p Platform, c SizeClass) []InputSpec {
	idx := int(c)
	pick := func(vals [3]string) string { return vals[idx] }
	pickI := func(vals [3]int) int { return vals[idx] }

	var specs []InputSpec
	switch p {
	case HWL:
		specs = []InputSpec{
			{App: "WC", Paper: pick([3]string{"400MB", "800MB", "1.6GB"}),
				Params: Params{Bytes: pickI([3]int{400 << 20, 800 << 20, 1600 << 20}) / wcScale}},
			{App: "KM", Paper: pick([3]string{"400K", "800K", "2M"}),
				Params: Params{Points: pickI([3]int{400_000, 800_000, 2_000_000}) / lrScale, Dims: 8, K: 100}},
			{App: "LR", Paper: pick([3]string{"400MB", "800MB", "1.6GB"}),
				Params: Params{Points: pickI([3]int{400 << 20, 800 << 20, 1600 << 20}) / (8 * wcScale)}},
			{App: "PCA", Paper: pick([3]string{"500", "800", "1000"}),
				Params: Params{N: pickI([3]int{500, 800, 1000}) / pcaScale}},
			{App: "MM", Paper: pick([3]string{"2Kx2K", "3Kx2K", "4Kx4K"}),
				Params: Params{RowsA: pickI([3]int{2048, 3072, 4096}) / mmScale,
					Inner: pickI([3]int{2048, 2048, 4096}) / mmScale,
					ColsB: pickI([3]int{2048, 2048, 4096}) / mmScale}},
			{App: "HG", Paper: pick([3]string{"200MB", "400MB", "1GB"}),
				Params: Params{Bytes: pickI([3]int{200 << 20, 400 << 20, 1000 << 20}) / hgScale}},
		}
	case PHI:
		specs = []InputSpec{
			{App: "WC", Paper: pick([3]string{"200MB", "400MB", "800MB"}),
				Params: Params{Bytes: pickI([3]int{200 << 20, 400 << 20, 800 << 20}) / wcScale}},
			{App: "KM", Paper: pick([3]string{"200K", "400K", "800K"}),
				Params: Params{Points: pickI([3]int{200_000, 400_000, 800_000}) / lrScale, Dims: 8, K: 100}},
			{App: "LR", Paper: pick([3]string{"200MB", "400MB", "800MB"}),
				Params: Params{Points: pickI([3]int{200 << 20, 400 << 20, 800 << 20}) / (8 * wcScale)}},
			{App: "PCA", Paper: pick([3]string{"300", "500", "800"}),
				Params: Params{N: pickI([3]int{300, 500, 800}) / pcaScale}},
			{App: "MM", Paper: pick([3]string{"2Kx2K", "3Kx2K", "4Kx4K"}),
				Params: Params{RowsA: pickI([3]int{2048, 3072, 4096}) / mmScale,
					Inner: pickI([3]int{2048, 2048, 4096}) / mmScale,
					ColsB: pickI([3]int{2048, 2048, 4096}) / mmScale}},
			{App: "HG", Paper: pick([3]string{"200MB", "400MB", "600MB"}),
				Params: Params{Bytes: pickI([3]int{200 << 20, 400 << 20, 600 << 20}) / hgScale}},
		}
	}
	for i := range specs {
		specs[i].Platform = p
		specs[i].Class = c
	}
	return specs
}

// Input returns the spec for one app on one platform/class.
func Input(app string, p Platform, c SizeClass) (InputSpec, error) {
	for _, s := range Inputs(p, c) {
		if s.App == app {
			return s, nil
		}
	}
	return InputSpec{}, fmt.Errorf("workloads: unknown app %q", app)
}

// DefaultContainer returns each app's default container kind (§IV-D: "the
// default container for all applications is a thread-local fixed array ...
// except WC that uses thread-local hash tables").
func DefaultContainer(app string) container.Kind {
	if app == "WC" {
		return container.KindHash
	}
	return container.KindFixedArray
}

// StressContainer returns the memory-intensive container configuration of
// Figs. 8b/9b: "fixed-size hash tables in HG, KM, LR and WC, and regular
// hash tables in MM and PCA".
func StressContainer(app string) container.Kind {
	switch app {
	case "MM", "PCA":
		return container.KindHash
	default:
		return container.KindFixedHash
	}
}

// NewJob instantiates the named app with Table I-scaled input.
func NewJob(app string, p Platform, c SizeClass, kind container.Kind, seed int64) (*Job, error) {
	in, err := Input(app, p, c)
	if err != nil {
		return nil, err
	}
	return NewJobParams(app, in.Params, kind, seed)
}

// NewJobParams instantiates the named app with explicit generator
// parameters, building its input on GOMAXPROCS goroutines.
func NewJobParams(app string, pr Params, kind container.Kind, seed int64) (*Job, error) {
	return Build(app, pr, kind, seed, nil, 0)
}

// Build instantiates the named app with explicit generator parameters —
// shard sh of it when sh is non-nil — generating the split-addressable
// inputs (WC text, HG pixels) on width goroutines (width < 1: GOMAXPROCS;
// see FillSplits). The other apps build theirs serially.
func Build(app string, pr Params, kind container.Kind, seed int64, sh *ShardSpec, width int) (*Job, error) {
	if sh != nil {
		if err := sh.Validate(); err != nil {
			return nil, fmt.Errorf("workloads: shard %s: %v", app, err)
		}
		switch app {
		case "WC":
			return wordCountShardJob(pr.Bytes, kind, seed, *sh, width), nil
		case "HG":
			return histogramShardJob(pr.Bytes, kind, seed, *sh, width), nil
		default:
			return nil, fmt.Errorf("workloads: app %q is not shardable (want one of %v; float-valued apps merge only approximately)",
				app, ShardableApps())
		}
	}
	switch app {
	case "WC":
		return WordCountJob(pr.Bytes, kind, seed, width), nil
	case "HG":
		return HistogramJob(pr.Bytes, kind, seed, width), nil
	case "LR":
		return LinRegJob(pr.Points, kind, seed), nil
	case "KM":
		return KMeansJob(pr.Points, pr.Dims, pr.K, kind, seed), nil
	case "PCA":
		return PCAJob(pr.N, kind, seed), nil
	case "MM":
		return MatMulJob(pr.RowsA, pr.Inner, pr.ColsB, kind, seed), nil
	case "SM":
		// Suite extension (not part of the paper's figures); the
		// container choice is fixed.
		return StringMatchJob(pr.Bytes, seed), nil
	default:
		return nil, fmt.Errorf("workloads: unknown app %q", app)
	}
}
