package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/topology"
)

// countSpec builds a job whose splits each emit `emits` pairs over a key
// range; the serial reference is trivially computable.
func countSpec(splits, emits, keys int) *mr.Spec[int, int, int, int] {
	in := make([]int, splits)
	for i := range in {
		in[i] = i
	}
	return &mr.Spec[int, int, int, int]{
		Name:   "count",
		Splits: in,
		Map: func(s int, emit func(int, int)) {
			for e := 0; e < emits; e++ {
				emit((s*emits+e)%keys, 1)
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](keys) },
		Less:         func(a, b int) bool { return a < b },
	}
}

func testConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Mappers = 3
	cfg.Combiners = 2
	cfg.QueueCapacity = 128
	cfg.BatchSize = 16
	cfg.Machine = topology.Flat(4)
	cfg.Pin = mr.PinNone
	return cfg
}

// parked returns cfg under a CPU grant too small for its workers. The grant
// rule then switches work conservation off — lanes get no Fold, slots no
// Help — so producers park on full rings and combiners on empty ones: what
// the tests of the handshake, of ring ownership and of the abort drain are
// about, and the shape every run had before the pipeline conserved work.
func parked(cfg mr.Config) mr.Config {
	cfg.CPUGrant = []int{0}
	return cfg
}

// conserved asserts the pair books of a finished run that emitted want
// pairs: each went through a ring or was folded where it was emitted, and
// every ring gave back what it took.
func conserved(t *testing.T, res *mr.Result[int, int], want int) {
	t.Helper()
	qs := res.QueueStats
	if qs.Pushes+res.Help.Pairs() != uint64(want) || qs.Pushes != qs.Pops {
		t.Fatalf("%d pairs emitted; queue stats: %+v, help: %+v", want, qs, res.Help)
	}
}

func TestRunCorrectness(t *testing.T) {
	spec := countSpec(40, 25, 17)
	res, err := Run(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 17 {
		t.Fatalf("%d keys, want 17", len(res.Pairs))
	}
	total := 0
	for i, p := range res.Pairs {
		if p.Key != i {
			t.Fatalf("keys not sorted: %v", res.Pairs)
		}
		total += p.Value
	}
	if total != 40*25 {
		t.Fatalf("total = %d, want %d", total, 40*25)
	}
	conserved(t, res, 40*25)
	if res.Phases.Total() <= 0 {
		t.Fatal("phases not recorded")
	}
}

func TestRunValidation(t *testing.T) {
	spec := countSpec(4, 4, 4)
	bad := testConfig()
	bad.Mappers = 0
	if _, err := Run(spec, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	broken := *spec
	broken.Map = nil
	if _, err := Run(&broken, testConfig()); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestBatchLargerThanQueue is the deadlock regression: a consume batch
// exceeding the ring capacity must be clamped, or a blocked producer and a
// batch-starved consumer wait on each other forever.
func TestBatchLargerThanQueue(t *testing.T) {
	spec := countSpec(20, 200, 7)
	cfg := testConfig()
	cfg.QueueCapacity = 32
	cfg.BatchSize = 100_000
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 20*200 {
		t.Fatalf("total = %d", total)
	}
}

func TestEmptyInput(t *testing.T) {
	spec := countSpec(0, 5, 5)
	res, err := Run(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("expected empty output, got %d pairs", len(res.Pairs))
	}
}

func TestSingleMapperSingleCombiner(t *testing.T) {
	spec := countSpec(10, 10, 3)
	cfg := testConfig()
	cfg.Mappers = 1
	cfg.Combiners = 1
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("%d keys", len(res.Pairs))
	}
}

func TestMoreCombinersThanMappersClamped(t *testing.T) {
	spec := countSpec(10, 10, 3)
	cfg := testConfig()
	cfg.Mappers = 2
	cfg.Combiners = 8 // NumCombiners clamps to Mappers
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
}

func TestAllPinPoliciesProduceSameResult(t *testing.T) {
	spec := countSpec(30, 40, 11)
	var want []mr.Pair[int, int]
	for _, pin := range []mr.PinPolicy{mr.PinRAMR, mr.PinRoundRobin, mr.PinNone} {
		cfg := testConfig()
		cfg.Pin = pin
		cfg.Machine = topology.HaswellServer() // plans target cpus the host lacks: must degrade gracefully
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pin, err)
		}
		if want == nil {
			want = res.Pairs
			continue
		}
		if len(res.Pairs) != len(want) {
			t.Fatalf("%v: output size differs", pin)
		}
		for i := range want {
			if res.Pairs[i] != want[i] {
				t.Fatalf("%v: pair %d differs", pin, i)
			}
		}
	}
}

func TestWaitPolicies(t *testing.T) {
	for _, wait := range []spsc.WaitPolicy{spsc.WaitSleep, spsc.WaitBusy} {
		spec := countSpec(10, 100, 5)
		cfg := testConfig()
		cfg.Wait = wait
		cfg.QueueCapacity = 16 // force blocked pushes
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%v: %v", wait, err)
		}
		total := 0
		for _, p := range res.Pairs {
			total += p.Value
		}
		if total != 1000 {
			t.Fatalf("%v: total = %d", wait, total)
		}
	}
}

func TestRatioDerivedCombiners(t *testing.T) {
	spec := countSpec(12, 10, 5)
	cfg := testConfig()
	cfg.Combiners = 0
	cfg.Ratio = 3
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 5 {
		t.Fatalf("%d keys", len(res.Pairs))
	}
}

// multiSocket builds a synthetic n-node machine (2 cores per node, no
// SMT, per-node LLC) for deque steering tests.
func multiSocket(n int) *topology.Machine {
	return &topology.Machine{
		Name:           "multi-socket",
		Sockets:        n,
		CoresPerSocket: 2,
		ThreadsPerCore: 1,
		Enum:           topology.EnumCompact,
		Caches: []topology.CacheLevel{
			{Level: 1, SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Scope: topology.ScopePerCore, LatencyCycles: 4},
			{Level: 3, SizeBytes: 8 << 20, LineBytes: 64, Assoc: 16, Scope: topology.ScopePerSocket, LatencyCycles: 40},
		},
		MemLatencyCycles:         200,
		CrossSocketPenaltyCycles: 100,
	}
}

func TestTaskQueuesStealAcrossGroups(t *testing.T) {
	tasks := mr.Tasks(10, 1)
	// One mapper per group seeds every group tasks, but only group 2's
	// mapper runs: it must drain the whole set, stealing the other
	// groups' shares, and classify those takes as remote.
	tq := newTaskQueues(tasks, multiSocket(3), []int{1, 1, 1}, mr.StealChunked)
	seen := map[int]bool{}
	stolen := 0
	for {
		lo, hi, cls, ok := tq.take(2, false)
		if !ok {
			break
		}
		if cls != topology.StealLocal {
			stolen += hi - lo
			if cls != topology.StealRemote {
				t.Fatalf("cross-socket steal classified %v, want remote", cls)
			}
		}
		for task := lo; task < hi; task++ {
			if seen[task] {
				t.Fatalf("task %d dispensed twice", task)
			}
			seen[task] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("drained %d tasks, want 10", len(seen))
	}
	if stolen == 0 {
		t.Fatal("lone mapper drained three seeded groups without a single steal")
	}
	if tq.remaining() != 0 {
		t.Fatalf("%d tasks still queued after exhaustion", tq.remaining())
	}
}

// TestTaskQueuesStealOffStaysLocal: under StealOff a mapper sees only its
// own group's seed, and the other groups' mappers can still drain theirs.
func TestTaskQueuesStealOffStaysLocal(t *testing.T) {
	tasks := mr.Tasks(12, 1)
	tq := newTaskQueues(tasks, multiSocket(3), []int{1, 1, 1}, mr.StealOff)
	counts := make([]int, 3)
	for g := 0; g < 3; g++ {
		for {
			lo, hi, cls, ok := tq.take(g, false)
			if !ok {
				break
			}
			if cls != topology.StealLocal {
				t.Fatalf("StealOff produced a %v take", cls)
			}
			counts[g] += hi - lo
		}
	}
	for g, n := range counts {
		if n != 4 {
			t.Fatalf("group %d drained %d tasks, want its seeded 4", g, n)
		}
	}
}

// TestTaskQueuesSingleTakes: a single take — a helping combiner slot's —
// gets one task whatever the guided chunk would have been, from its own
// deque's head or a victim's tail, and under StealOff never leaves its
// group; and a deque that slots help drain gives its mappers one task at a
// time too, while the other groups keep their chunks.
func TestTaskQueuesSingleTakes(t *testing.T) {
	tq := newTaskQueues(mr.Tasks(12, 1), multiSocket(3), []int{1, 1, 1}, mr.StealChunked)
	if lo, hi, cls, ok := tq.take(0, true); !ok || hi-lo != 1 || lo != 0 || cls != topology.StealLocal {
		t.Fatalf("own deque: took [%d,%d) class %v ok=%v, want task 0 alone, local", lo, hi, cls, ok)
	}
	for {
		if _, _, cls, _ := tq.take(0, false); cls != topology.StealLocal {
			break // group 0 is drained: that take was a steal
		}
	}
	before := tq.remaining()
	if lo, hi, cls, ok := tq.take(0, true); !ok || hi-lo != 1 || cls == topology.StealLocal {
		t.Fatalf("victim deque: took [%d,%d) class %v ok=%v, want one stolen task", lo, hi, cls, ok)
	}
	if got := tq.remaining(); got != before-1 {
		t.Fatalf("capped steal moved %d tasks, want 1", before-got)
	}

	off := newTaskQueues(mr.Tasks(12, 1), multiSocket(3), []int{1, 1, 0}, mr.StealOff)
	if _, _, _, ok := off.take(2, true); ok {
		t.Fatal("StealOff: a slot in a group seeded nothing took another group's task")
	}
	if off.remaining() != 12 {
		t.Fatalf("StealOff: %d tasks left, want all 12", off.remaining())
	}

	helped := newTaskQueues(mr.Tasks(40, 1), multiSocket(2), []int{1, 1}, mr.StealChunked)
	helped.helpersIn[0] = 1
	if lo, hi, _, _ := helped.take(0, false); hi-lo != 1 {
		t.Fatalf("mapper took %d tasks from a deque a slot helps drain, want 1", hi-lo)
	}
	if lo, hi, _, _ := helped.take(1, false); hi-lo != 10 {
		t.Fatalf("mapper took %d tasks from an unhelped deque of 20, want the guided chunk of 10", hi-lo)
	}
}

func TestTaskQueuesConcurrentExactlyOnce(t *testing.T) {
	tasks := mr.Tasks(500, 1)
	machine := multiSocket(4)
	// 8 workers, 2 per group, matching the mappersIn weights.
	tq := newTaskQueues(tasks, machine, []int{2, 2, 2, 2}, mr.StealChunked)
	var claimed [500]atomic.Int32
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for {
				lo, hi, _, ok := tq.take(g, false)
				if !ok {
					return
				}
				for task := lo; task < hi; task++ {
					claimed[task].Add(1)
				}
			}
		}(w % 4)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	for i := range claimed {
		if n := claimed[i].Load(); n != 1 {
			t.Fatalf("task %d claimed %d times", i, n)
		}
	}
	if tq.remaining() != 0 {
		t.Fatalf("%d tasks left after global exhaustion", tq.remaining())
	}
}

// TestSeedSharesProportional is the partitioning bugfix regression: shares
// follow mapper weights (largest remainder), zero-weight groups get
// nothing, and the shares always sum to the total.
func TestSeedSharesProportional(t *testing.T) {
	cases := []struct {
		total   int
		weights []int
		want    []int
	}{
		{10, []int{1, 1}, []int{5, 5}},
		{10, []int{3, 1}, []int{8, 2}}, // 7.5/2.5: equal fractions, tie to the lower group
		{10, []int{1, 0}, []int{10, 0}},
		{7, []int{1, 1, 1}, []int{3, 2, 2}},
		{0, []int{2, 1}, []int{0, 0}},
		{5, []int{0, 0}, []int{5, 0}}, // degenerate: park in group 0
	}
	for _, c := range cases {
		got := seedShares(c.total, c.weights)
		sum := 0
		for g := range got {
			sum += got[g]
			if got[g] != c.want[g] {
				t.Fatalf("seedShares(%d, %v) = %v, want %v", c.total, c.weights, got, c.want)
			}
		}
		if sum != c.total {
			t.Fatalf("seedShares(%d, %v) sums to %d", c.total, c.weights, sum)
		}
	}
}

// TestSeedSharesGrantFiltered seeds deques from a grant-filtered plan: a
// CPU grant confined to socket 0 must put every mapper — and therefore
// every task — in group 0, leaving group 1 empty so the StealOff baseline
// cannot strand work in a mapper-less group.
func TestSeedSharesGrantFiltered(t *testing.T) {
	machine := topology.Fig3Example()
	grant := []int{0, 1, 2, 3} // socket 0 cores only
	mappers := 3
	plan := BuildPlanOn(machine, grant, mappers, 1, mr.PinRAMR)
	groups := machine.LocalityGroups()
	mg := workerGroups(machine, plan.MapperCPU, len(groups))
	mappersIn := make([]int, len(groups))
	for _, g := range mg {
		mappersIn[g]++
	}
	if mappersIn[0] != mappers || mappersIn[1] != 0 {
		t.Fatalf("grant-filtered mappers per group = %v, want [%d 0]", mappersIn, mappers)
	}
	tasks := mr.Tasks(40, 1)
	tq := newTaskQueues(tasks, machine, mappersIn, mr.StealOff)
	if got := tq.deques[0].tail - tq.deques[0].head; got != 40 {
		t.Fatalf("group 0 seeded %d tasks, want all 40", got)
	}
	if got := tq.deques[1].tail - tq.deques[1].head; got != 0 {
		t.Fatalf("mapper-less group 1 seeded %d tasks, want 0", got)
	}
}

// TestTaskQueuesVictimOrderPreferred: on a 4-node ring with uniform
// cross-node cost, a thief in group 1 must steal from group 2 first (ring
// order), not group 0.
func TestTaskQueuesVictimOrderPreferred(t *testing.T) {
	tasks := mr.Tasks(40, 1)
	tq := newTaskQueues(tasks, multiSocket(4), []int{1, 1, 1, 1}, mr.StealChunked)
	// Group 1's own seed is [10, 20); once it drains, the first steal
	// must come from group 2's seed [20, 30) — the ring-order victim.
	for {
		lo, hi, cls, ok := tq.take(1, false)
		if !ok {
			t.Fatal("queues exhausted before any steal")
		}
		if cls == topology.StealLocal {
			continue
		}
		if lo < 20 || hi > 30 {
			t.Fatalf("first steal took [%d,%d), want within group 2's seed [20,30)", lo, hi)
		}
		break
	}
}

// nonDenseMachine models firmware that numbers its two packages 0 and 2,
// as sub-NUMA clustering and offline nodes do on real hosts.
func nonDenseMachine() *topology.Machine {
	return &topology.Machine{
		Name:           "non-dense",
		Sockets:        2,
		CoresPerSocket: 2,
		ThreadsPerCore: 1,
		Enum:           topology.EnumCompact,
		SocketIDs:      []int{0, 2},
		Caches: []topology.CacheLevel{
			{Level: 1, SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Scope: topology.ScopePerCore, LatencyCycles: 4},
		},
		MemLatencyCycles: 200,
	}
}

// TestMapperGroupsNonDenseSockets is the task-steering regression: a mapper
// pinned to a CPU on socket *label* 2 of a two-socket machine must draw
// from locality group 1, not "group 2" — the raw label aliases through the
// modulo in taskQueues.next and lands the mapper on the wrong NUMA node's
// task queue.
func TestMapperGroupsNonDenseSockets(t *testing.T) {
	machine := nonDenseMachine()
	groups := machine.LocalityGroups()
	if len(groups) != 2 {
		t.Fatalf("%d locality groups, want 2", len(groups))
	}
	// CPU 2 is the first core of the second socket (label 2) under
	// EnumCompact.
	cpu, err := machine.CPUByID(2)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Socket != 2 {
		t.Fatalf("cpu 2 on socket label %d, want 2", cpu.Socket)
	}
	plan := Plan{MapperCPU: []int{-1, 2}, CombinerCPU: []int{-1}}
	mg := workerGroups(machine, plan.MapperCPU, len(groups))
	for i, g := range mg {
		if g < 0 || g >= len(groups) {
			t.Fatalf("mapper %d steered to group %d, outside [0,%d)", i, g, len(groups))
		}
	}
	if mg[1] != 1 {
		t.Fatalf("mapper pinned to socket label 2 steered to group %d, want 1", mg[1])
	}
	if mg[0] != 0 {
		t.Fatalf("unpinned mapper steered to group %d, want 0", mg[0])
	}
}

// TestRunOnNonDenseSockets runs the full pipeline pinned on the non-dense
// machine; the host may lack those CPUs (pinning degrades gracefully) but
// the task steering must stay in range and the result exact.
func TestRunOnNonDenseSockets(t *testing.T) {
	spec := countSpec(16, 50, 11)
	cfg := testConfig()
	cfg.Mappers = 4
	cfg.Combiners = 2
	cfg.Machine = nonDenseMachine()
	cfg.Pin = mr.PinRAMR
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 16*50 {
		t.Fatalf("total = %d, want %d", total, 16*50)
	}
}

// TestHeavyContention pushes many more elements than queue capacity
// through a 1:1 pipeline to exercise wraparound, blocking and drain.
func TestHeavyContention(t *testing.T) {
	spec := countSpec(64, 500, 97)
	cfg := testConfig()
	cfg.Mappers = 4
	cfg.Combiners = 4
	cfg.QueueCapacity = 64
	cfg.BatchSize = 32
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if want := 64 * 500; total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

func TestResultDeterministicAcrossRuns(t *testing.T) {
	spec := countSpec(25, 30, 13)
	cfg := testConfig()
	var first string
	for run := 0; run < 3; run++ {
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprint(res.Pairs)
		if first == "" {
			first = s
		} else if s != first {
			t.Fatalf("run %d output differs", run)
		}
	}
}

// TestEmitBatchSweep pins that every emit-slab size — including 1 (the
// single-Push ablation path), an oversize value clamped to the ring, and
// the derived default — yields the identical result and element-exact
// queue accounting.
func TestEmitBatchSweep(t *testing.T) {
	spec := countSpec(40, 25, 17)
	for _, eb := range []int{0, 1, 3, 64, 100_000} {
		cfg := testConfig()
		cfg.EmitBatch = eb
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("EmitBatch=%d: %v", eb, err)
		}
		total := 0
		for _, p := range res.Pairs {
			total += p.Value
		}
		if total != 40*25 {
			t.Fatalf("EmitBatch=%d: total = %d, want %d", eb, total, 40*25)
		}
		conserved(t, res, 40*25)
	}
}
