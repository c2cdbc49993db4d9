package mr

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ramr/internal/container"
	"ramr/internal/spsc"
)

func validSpec() *Spec[int, int, int, int] {
	return &Spec[int, int, int, int]{
		Name:         "t",
		Splits:       []int{1, 2, 3},
		Map:          func(s int, emit func(int, int)) { emit(s, 1) },
		Combine:      func(a, b int) int { return a + b },
		Reduce:       IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewHash[int, int]() },
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Spec[int, int, int, int]){
		"no-map":       func(s *Spec[int, int, int, int]) { s.Map = nil },
		"no-combine":   func(s *Spec[int, int, int, int]) { s.Combine = nil },
		"no-reduce":    func(s *Spec[int, int, int, int]) { s.Reduce = nil },
		"no-container": func(s *Spec[int, int, int, int]) { s.NewContainer = nil },
	} {
		s := validSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a broken spec", name)
		}
	}
}

func TestPhaseTimes(t *testing.T) {
	p := PhaseTimes{
		Init: 1 * time.Second, Partition: 1 * time.Second,
		MapCombine: 6 * time.Second, Reduce: 1 * time.Second, Merge: 1 * time.Second,
	}
	if p.Total() != 10*time.Second {
		t.Fatalf("Total = %v", p.Total())
	}
	_, _, mc, _, _ := p.Fractions()
	if mc != 0.6 {
		t.Fatalf("map-combine fraction = %v", mc)
	}
	var zero PhaseTimes
	i, pa, mc2, r, m := zero.Fractions()
	if i+pa+mc2+r+m != 0 {
		t.Fatal("zero total should yield zero fractions")
	}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Mappers: 0, Ratio: 1, TaskSize: 1, QueueCapacity: 1, BatchSize: 1},
		{Mappers: 1, Combiners: -1, Ratio: 1, TaskSize: 1, QueueCapacity: 1, BatchSize: 1},
		{Mappers: 1, Ratio: 0, TaskSize: 1, QueueCapacity: 1, BatchSize: 1},
		{Mappers: 1, Ratio: 1, TaskSize: 0, QueueCapacity: 1, BatchSize: 1},
		{Mappers: 1, Ratio: 1, TaskSize: 1, QueueCapacity: 0, BatchSize: 1},
		{Mappers: 1, Ratio: 1, TaskSize: 1, QueueCapacity: 1, BatchSize: 0},
		{Mappers: 1, Ratio: 1, TaskSize: 1, QueueCapacity: 1, BatchSize: 1, EmitBatch: -1},
		{Mappers: 1, Ratio: 1, TaskSize: 1, QueueCapacity: 1, BatchSize: 1, Pin: PinPolicy(7)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestSplitWorkers pins the one worker-split rule to the formula each
// caller used to write out for itself: combiners get n/(r+1) but at least
// one, mappers the rest but at least one.
func TestSplitWorkers(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for r := 1; r <= 32; r++ {
			c := n / (r + 1)
			if c < 1 {
				c = 1
			}
			m := n - c
			if m < 1 {
				m = 1
			}
			if gm, gc := SplitWorkers(n, r); gm != m || gc != c {
				t.Fatalf("SplitWorkers(%d, %d) = %d+%d, want %d+%d", n, r, gm, gc, m, c)
			}
			cfg := Config{Ratio: r}
			cfg.ApplyGrant(make([]int, n))
			if cfg.Mappers != m || cfg.Combiners != c {
				t.Fatalf("ApplyGrant(%d CPUs) at ratio %d = %d+%d, want %d+%d", n, r, cfg.Mappers, cfg.Combiners, m, c)
			}
		}
	}
}

func TestNumCombiners(t *testing.T) {
	for _, tc := range []struct {
		mappers, combiners, ratio, want int
	}{
		{8, 0, 1, 8},
		{8, 0, 2, 4},
		{8, 0, 3, 3}, // ceil(8/3)
		{8, 0, 100, 1},
		{8, 5, 9, 5},   // explicit wins
		{8, 100, 1, 8}, // clamped to mappers
		{3, 0, 0, 3},   // ratio below 1 behaves as 1
	} {
		c := Config{Mappers: tc.mappers, Combiners: tc.combiners, Ratio: tc.ratio}
		if got := c.NumCombiners(); got != tc.want {
			t.Fatalf("NumCombiners(m=%d c=%d r=%d) = %d, want %d",
				tc.mappers, tc.combiners, tc.ratio, got, tc.want)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvMappers, "7")
	t.Setenv(EnvRatio, "3")
	t.Setenv(EnvTaskSize, "9")
	t.Setenv(EnvQueueCap, "123")
	t.Setenv(EnvBatchSize, "55")
	t.Setenv(EnvEmitBatch, "17")
	t.Setenv(EnvPin, "rr")
	c, err := FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if c.Mappers != 7 || c.Ratio != 3 || c.TaskSize != 9 || c.QueueCapacity != 123 || c.BatchSize != 55 || c.EmitBatch != 17 {
		t.Fatalf("env not applied: %+v", c)
	}
	if c.Pin != PinRoundRobin {
		t.Fatalf("pin not applied: %+v", c)
	}
}

func TestFromEnvRejectsGarbage(t *testing.T) {
	for env, val := range map[string]string{
		EnvMappers:   "zero",
		EnvRatio:     "0",
		EnvBatchSize: "-3",
		EnvEmitBatch: "0",
		EnvPin:       "sideways",
	} {
		t.Run(env, func(t *testing.T) {
			t.Setenv(env, val)
			if _, err := FromEnv(); err == nil {
				t.Fatalf("%s=%s accepted", env, val)
			}
		})
	}
}

func TestParsePinPolicy(t *testing.T) {
	for s, want := range map[string]PinPolicy{
		"ramr": PinRAMR, "rr": PinRoundRobin, "round-robin": PinRoundRobin,
		"none": PinNone, "os": PinNone, "os-default": PinNone,
	} {
		got, err := ParsePinPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePinPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePinPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if PinRAMR.String() != "ramr" || PinPolicy(9).String() == "" {
		t.Fatal("PinPolicy String broken")
	}
}

func TestTasks(t *testing.T) {
	tasks := Tasks(10, 3)
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if len(tasks) != len(want) {
		t.Fatalf("tasks = %v", tasks)
	}
	for i := range want {
		if tasks[i] != want[i] {
			t.Fatalf("tasks[%d] = %v, want %v", i, tasks[i], want[i])
		}
	}
	if len(Tasks(0, 3)) != 0 {
		t.Fatal("no splits should yield no tasks")
	}
	if len(Tasks(5, 0)) != 5 {
		t.Fatal("task size < 1 should clamp to 1")
	}
}

// TestQuickTasksCoverExactly: every split index appears in exactly one
// task, contiguously.
func TestQuickTasksCoverExactly(t *testing.T) {
	f := func(n, size uint8) bool {
		tasks := Tasks(int(n), int(size))
		next := 0
		for _, tk := range tasks {
			if tk[0] != next || tk[1] <= tk[0] {
				return false
			}
			next = tk[1]
		}
		return next == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeContainers(t *testing.T) {
	sum := func(a, b int) int { return a + b }
	var cs []container.Container[int, int]
	for w := 0; w < 5; w++ {
		c := container.NewHash[int, int]()
		for k := 0; k < 10; k++ {
			c.Update(k, w+1, sum)
		}
		cs = append(cs, c)
	}
	merged, err := MergeContainers(cs, sum)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if v, _ := merged.Get(k); v != 15 { // 1+2+3+4+5
			t.Fatalf("key %d = %d, want 15", k, v)
		}
	}
	if empty, err := MergeContainers[int, int](nil, sum); empty != nil || err != nil {
		t.Fatal("empty merge should be nil, nil")
	}
}

func TestReduceAllAndSort(t *testing.T) {
	c := container.NewHash[int, int]()
	sum := func(a, b int) int { return a + b }
	for k := 0; k < 100; k++ {
		c.Update(k, k, sum)
	}
	pairs, err := ReduceAll(c, func(k, v int) int { return v * 2 }, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 100 {
		t.Fatalf("%d pairs", len(pairs))
	}
	SortPairs(pairs, func(a, b int) bool { return a < b })
	for i, p := range pairs {
		if p.Key != i || p.Value != i*2 {
			t.Fatalf("pair %d = %+v", i, p)
		}
	}
	// nil less leaves order unspecified but must not panic.
	SortPairs(pairs, nil)
	// empty container
	if out, err := ReduceAll(container.NewHash[int, int](), func(k, v int) int { return v }, 4); out != nil || err != nil {
		t.Fatal("empty reduce should be nil, nil")
	}
}

func TestFirstError(t *testing.T) {
	var f FirstError
	if f.Get() != nil {
		t.Fatal("fresh FirstError not nil")
	}
	f.Set(nil) // no-op
	f.Setf("boom %d", 1)
	f.Setf("boom %d", 2)
	if got := f.Get(); got == nil || got.Error() != "boom 1" {
		t.Fatalf("Get = %v, want the first error", got)
	}
}

func TestReduceAllPanicReported(t *testing.T) {
	c := container.NewHash[int, int]()
	sum := func(a, b int) int { return a + b }
	for k := 0; k < 50; k++ {
		c.Update(k, k, sum)
	}
	_, err := ReduceAll(c, func(k, v int) int {
		if k == 31 {
			panic("reduce exploded")
		}
		return v
	}, 4)
	if err == nil {
		t.Fatal("reduce panic not reported")
	}
}

func TestMergeContainersPanicReported(t *testing.T) {
	a := container.NewHash[int, int]()
	b := container.NewHash[int, int]()
	sum := func(x, y int) int { return x + y }
	a.Update(1, 1, sum)
	b.Update(1, 1, sum)
	_, err := MergeContainers([]container.Container[int, int]{a, b},
		func(x, y int) int { panic("combine exploded") })
	if err == nil {
		t.Fatal("combine panic not reported")
	}
}

func TestQueueStatsAdd(t *testing.T) {
	var agg QueueStats
	agg.Add(spsc.Stats{Pushes: 10, FailedPush: 1, Pops: 10,
		EmptyPolls: 3, ShortPolls: 4, BatchCalls: 5, SleepMicros: 6})
	agg.Add(spsc.Stats{Pushes: 5, FailedPush: 1, Pops: 5, BatchCalls: 1})
	want := QueueStats{Pushes: 15, FailedPush: 2, Pops: 15,
		EmptyPolls: 3, ShortPolls: 4, BatchCalls: 6, SleepMicros: 6}
	if agg != want {
		t.Fatalf("Add: got %+v, want %+v", agg, want)
	}
}

func TestQueueStatsRates(t *testing.T) {
	var zero QueueStats
	if zero.FailedPushRate() != 0 || zero.ShortPollRate() != 0 {
		t.Fatal("zero stats must yield zero rates, not NaN")
	}
	q := QueueStats{Pushes: 75, FailedPush: 25, BatchCalls: 50, EmptyPolls: 30, ShortPolls: 20}
	if got := q.FailedPushRate(); got != 0.25 {
		t.Fatalf("FailedPushRate = %v, want 0.25", got)
	}
	if got := q.ShortPollRate(); got != 0.2 {
		t.Fatalf("ShortPollRate = %v, want 0.2", got)
	}
}

func TestQueueStatsString(t *testing.T) {
	q := QueueStats{Pushes: 75, FailedPush: 25, Pops: 75,
		BatchCalls: 50, EmptyPolls: 30, ShortPolls: 20, SleepMicros: 99}
	s := q.String()
	for _, want := range []string{"75 pushed", "25.0% failed",
		"75 popped", "50 batch calls", "30 empty polls", "20 short polls", "99us slept"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func TestSecondsByPhase(t *testing.T) {
	p := PhaseTimes{Init: time.Second, MapCombine: 2 * time.Second}
	m := p.SecondsByPhase()
	if m["init"] != 1 || m["map-combine"] != 2 || m["reduce"] != 0 {
		t.Fatalf("SecondsByPhase = %v", m)
	}
	if len(m) != 5 {
		t.Fatalf("expected all five phases, got %v", m)
	}
}
