package telemetry

import (
	"bufio"
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	h.write(bw, "t", "")
	bw.Flush()
	want := []string{
		`t_bucket{le="0.1"} 1`,
		`t_bucket{le="1"} 3`,
		`t_bucket{le="10"} 4`,
		`t_bucket{le="+Inf"} 5`,
		`t_sum 56.05`,
		`t_count 5`,
	}
	got := strings.TrimSpace(buf.String())
	if got != strings.Join(want, "\n") {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

func TestHistogramVecExposition(t *testing.T) {
	v := NewHistogramVec("ramr_test_seconds", "Test latency.", []string{"workload", "priority"}, []float64{1, 10})
	v.Observe(0.5, "WC", "high")
	v.Observe(20, "WC", "high")
	v.Observe(2, "HG", "low")
	var buf bytes.Buffer
	if err := v.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("vec exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE ramr_test_seconds histogram",
		`ramr_test_seconds_bucket{workload="WC",priority="high",le="1"} 1`,
		`ramr_test_seconds_bucket{workload="WC",priority="high",le="+Inf"} 2`,
		`ramr_test_seconds_count{workload="WC",priority="high"} 2`,
		`ramr_test_seconds_bucket{workload="HG",priority="low",le="10"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if got := len(v.Series()); got != 2 {
		t.Fatalf("series count = %d, want 2", got)
	}
}

func TestHistogramVecEmptyEmitsNothing(t *testing.T) {
	v := NewHistogramVec("ramr_empty_seconds", "x", []string{"a"}, nil)
	var buf bytes.Buffer
	if err := v.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty family emitted %q", buf.String())
	}
}

func TestHistogramVecLabelArity(t *testing.T) {
	v := NewHistogramVec("ramr_arity_seconds", "x", []string{"a", "b"}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.Observe(1, "only-one")
}

func TestHistogramConcurrent(t *testing.T) {
	v := NewHistogramVec("ramr_conc_seconds", "x", []string{"w"}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				v.Observe(float64(j)/100, "w0")
			}
		}(i)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := v.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("invalid after concurrent observes: %v", err)
	}
	if !strings.Contains(buf.String(), `ramr_conc_seconds_count{w="w0"} 4000`) {
		t.Fatalf("lost observations:\n%s", buf.String())
	}
}

func TestCheckExpositionCatchesDefects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"duplicate series",
			"# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n", "duplicate series"},
		{"reordered duplicate",
			"# TYPE a gauge\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n", "duplicate series"},
		{"missing type",
			"a 1\n", "no preceding # TYPE"},
		{"duplicate type",
			"# TYPE a gauge\n# TYPE a counter\n", "duplicate TYPE"},
		{"type after samples",
			"# TYPE a gauge\na 1\n# TYPE a gauge\n", "duplicate TYPE"},
		{"malformed value",
			"# TYPE a gauge\na one\n", "bad value"},
		{"unterminated labels",
			"# TYPE a gauge\na{x=\"1\" 1\n", "label"},
		{"histogram missing inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "+Inf"},
		{"histogram count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n", "!= count"},
		{"histogram not cumulative",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 6\nh_sum 1\nh_count 6\n", "not cumulative"},
		{"histogram bare sample",
			"# TYPE h histogram\nh 1\n", "without _bucket"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckExposition([]byte(tc.body))
			if err == nil {
				t.Fatalf("accepted malformed exposition:\n%s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckExpositionAcceptsRealExposition(t *testing.T) {
	tm := New()
	l := begin(tm, "RAMR")
	l.Register("mapper", 0).AddTask(10)
	var buf bytes.Buffer
	if err := tm.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("engine exposition rejected: %v\n%s", err, buf.String())
	}
}
