package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/telemetry"
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

// parked returns cfg on a plan that ships pairs: the paper's pinning over
// the first core of each socket (firstCores) of cfg's machine, or of the
// Haswell server preset when that machine has no SMT. Combiner 0 then shares
// a core with mapper 0 (a pin on a CPU the host lacks is ignored), so
// mappers ship every pair through their rings and slots map no task:
// producers park on full rings and combiners on empty ones. That is what the
// tests of the handshake, of ring ownership and of the abort drain are
// about, and the shape every run had before the pipeline conserved work.
func parked(cfg mr.Config) mr.Config {
	m := cfg.ResolveMachine()
	if m.ThreadsPerCore < 2 {
		m = topology.HaswellServer()
	}
	cfg.Machine, cfg.Pin, cfg.CPUGrant = m, mr.PinRAMR, firstCores(m)
	return cfg
}

// firstCores returns every SMT thread of the first core of each of m's
// sockets: a grant that spans every locality group, and on which the
// paper's pinning puts combiner 0 on a sibling of mapper 0.
func firstCores(m *topology.Machine) []int {
	first := map[int]int{} // socket -> its first core
	var grant []int
	for _, c := range m.CPUs() {
		if _, ok := first[c.Socket]; !ok {
			first[c.Socket] = c.Core
		}
		if first[c.Socket] == c.Core {
			grant = append(grant, c.ID)
		}
	}
	return grant
}

// conserved asserts the pair books of a finished run that emitted want
// pairs, read off its report (the run needs a Config.Telemetry): each went
// through a ring or was folded where it was emitted — combined but never
// popped — and every ring gave back what it took.
func conserved(t *testing.T, res *mr.Result[int, int], want int) {
	t.Helper()
	if res.Telemetry == nil {
		t.Fatal("conserved reads the run's report: set Config.Telemetry")
	}
	tot, qs := res.Telemetry.Totals, res.QueueStats
	folded := tot.Combined - qs.Pops
	if tot.Emitted != uint64(want) || qs.Pushes+folded != uint64(want) || qs.Pushes != qs.Pops || tot.Queue != qs {
		t.Fatalf("%d pairs emitted; report totals %+v, queue stats %+v", want, tot, qs)
	}
}

// roleBooks sums the rows of a run's report that have the given role.
func roleBooks(rep *telemetry.Report, role string) telemetry.Totals {
	var t telemetry.Totals
	for _, w := range rep.Workers {
		if w.Role == role {
			t.Add(w.Totals)
		}
	}
	return t
}

func TestRunCorrectness(t *testing.T) {
	spec := countSpec(40, 25, 17)
	cfg := testConfig()
	cfg.Telemetry = telemetry.New()
	res, err := Run(spec, cfg)
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
// larger than the ring is clamped to it. Unclamped it could never fill
// while its producer is parked on the full ring, and the pipeline
// deadlocks; a run that ships nothing never meets it, so the run is on a
// plan that ships pairs.
func TestBatchLargerThanQueue(t *testing.T) {
	spec := countSpec(20, 200, 7)
	cfg := parked(testConfig())
	cfg.QueueCapacity = 32
	cfg.BatchSize = 100_000
	cfg.Telemetry = telemetry.New()
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
	conserved(t, res, 20*200)
	if res.QueueStats.Pushes != 20*200 {
		t.Fatalf("%d pairs pushed, want every one through a ring", res.QueueStats.Pushes)
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

// TestWaitPolicies covers the kernel's two answers to a ring too small for
// the job. On a plan that ships nothing a mapper never meets it: it folds
// every pair where it emits it and pushes nothing. On a sibling plan every
// pair crosses the ring, the mapper parks whenever it is full until
// its combiner has drained it, and nothing is folded in place. Both keep
// the result exact and the books balanced.
func TestWaitPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  mr.Config
		park bool
	}{{"fold", testConfig(), false}, {"park", parked(testConfig()), true}} {
		spec := countSpec(10, 100, 5)
		cfg := tc.cfg
		cfg.QueueCapacity = 16 // force full rings
		cfg.Telemetry = telemetry.New()
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		total := 0
		for _, p := range res.Pairs {
			total += p.Value
		}
		if total != 1000 {
			t.Fatalf("%s: total = %d", tc.name, total)
		}
		conserved(t, res, 1000)
		if tc.park && res.QueueStats.Pushes != 1000 {
			t.Fatalf("park: %d pushed on a plan that parks the mapper, want every pair", res.QueueStats.Pushes)
		}
		if !tc.park && res.QueueStats.Pushes != 0 {
			t.Fatalf("fold: %d pushed; want every pair folded where it was emitted", res.QueueStats.Pushes)
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

// seeded returns a source of n one-split tasks over the splits 0..n-1, so a
// task's split is its id, seeded and closed as a batch run's is.
func seeded(n int, machine *topology.Machine, workersIn []int, policy mr.StealPolicy, single bool) *taskQueues[int] {
	splits, tasks := make([]int, n), make([]Task[int], n)
	for i := range splits {
		splits[i] = i
		tasks[i].Splits = splits[i : i+1]
	}
	tq := newTaskQueues(tasks, machine, workersIn, policy, single, nil)
	tq.Close()
	return tq
}

// take is one take by a worker in group g, as the range of task ids [lo, hi)
// it got, which must be contiguous.
func take(t *testing.T, tq *taskQueues[int], g int) (lo, hi int, cls topology.StealClass, ok bool) {
	t.Helper()
	tasks, cls, ok := tq.take(g, nil)
	if !ok {
		return 0, 0, cls, false
	}
	lo, hi = tasks[0].Splits[0], tasks[len(tasks)-1].Splits[0]+1
	if hi-lo != len(tasks) {
		t.Fatalf("took %d tasks %v, not a contiguous range", len(tasks), tasks)
	}
	return lo, hi, cls, true
}

// drained fails the test unless no worker of any group can take a task.
func drained(t *testing.T, tq *taskQueues[int]) {
	t.Helper()
	for g := range tq.deques {
		if lo, hi, _, ok := take(t, tq, g); ok {
			t.Fatalf("group %d took [%d,%d) after exhaustion", g, lo, hi)
		}
	}
}

func TestTaskQueuesStealAcrossGroups(t *testing.T) {
	// One mapper per group seeds every group tasks, but only group 2's
	// mapper runs: it must drain the whole set, stealing the other
	// groups' shares, and classify those takes as remote.
	tq := seeded(10, multiSocket(3), []int{1, 1, 1}, mr.StealChunked, false)
	seen := map[int]bool{}
	stolen := 0
	for {
		lo, hi, cls, ok := take(t, tq, 2)
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
	drained(t, tq)
}

// TestTaskQueuesStealOffStaysLocal: under StealOff a mapper sees only its
// own group's seed, and the other groups' mappers can still drain theirs.
func TestTaskQueuesStealOffStaysLocal(t *testing.T) {
	tq := seeded(12, multiSocket(3), []int{1, 1, 1}, mr.StealOff, false)
	counts := make([]int, 3)
	for g := 0; g < 3; g++ {
		for {
			lo, hi, cls, ok := take(t, tq, g)
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

// TestTaskQueuesSingleTakes: a conserving run's queues give every take one
// task whatever the guided chunk would have been, from the taker's own
// deque's head or a victim's tail, and under StealOff never leave the
// taker's group; the pipeline's queues keep their guided chunks.
func TestTaskQueuesSingleTakes(t *testing.T) {
	tq := seeded(12, multiSocket(3), []int{1, 1, 1}, mr.StealChunked, true)
	if lo, hi, cls, ok := take(t, tq, 0); !ok || hi-lo != 1 || lo != 0 || cls != topology.StealLocal {
		t.Fatalf("own deque: took [%d,%d) class %v ok=%v, want task 0 alone, local", lo, hi, cls, ok)
	}
	for {
		lo, hi, cls, _ := take(t, tq, 0)
		if hi-lo != 1 {
			t.Fatalf("took [%d,%d), want one task", lo, hi)
		}
		if cls != topology.StealLocal {
			break // group 0 is drained: that take was a one-task steal
		}
	}

	off := seeded(12, multiSocket(3), []int{1, 1, 0}, mr.StealOff, true)
	if _, _, _, ok := take(t, off, 2); ok {
		t.Fatal("StealOff: a worker in a group seeded nothing took another group's task")
	}
	left := 0
	for g := 0; g < 2; g++ {
		for _, _, _, ok := take(t, off, g); ok; _, _, _, ok = take(t, off, g) {
			left++
		}
	}
	if left != 12 {
		t.Fatalf("StealOff: %d tasks left for the groups with workers, want all 12", left)
	}

	guided := seeded(40, multiSocket(2), []int{1, 1}, mr.StealChunked, false)
	if lo, hi, _, _ := take(t, guided, 1); hi-lo != 10 {
		t.Fatalf("mapper took %d tasks from a deque of 20, want the guided chunk of 10", hi-lo)
	}
}

func TestTaskQueuesConcurrentExactlyOnce(t *testing.T) {
	// 8 workers, 2 per group, matching the mappersIn weights.
	tq := seeded(500, multiSocket(4), []int{2, 2, 2, 2}, mr.StealChunked, false)
	var claimed [500]atomic.Int32
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for {
				tasks, _, ok := tq.take(g, nil)
				if !ok {
					return
				}
				for _, task := range tasks {
					claimed[task.Splits[0]].Add(1)
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
	drained(t, tq)
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
	tq := seeded(40, machine, mappersIn, mr.StealOff, false)
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
	tq := seeded(40, multiSocket(4), []int{1, 1, 1, 1}, mr.StealChunked, false)
	// Group 1's own seed is [10, 20); once it drains, the first steal
	// must come from group 2's seed [20, 30) — the ring-order victim.
	for {
		lo, hi, cls, ok := take(t, tq, 1)
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
// per-pair publish of the ablation), an oversize value clamped to the ring, and
// the derived default — yields the identical result and element-exact
// queue accounting.
func TestEmitBatchSweep(t *testing.T) {
	spec := countSpec(40, 25, 17)
	for _, eb := range []int{0, 1, 3, 64, 100_000} {
		cfg := parked(testConfig()) // a fused lane stages nothing to batch
		cfg.EmitBatch = eb
		cfg.Telemetry = telemetry.New()
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
		if res.QueueStats.Pushes != 40*25 {
			t.Fatalf("EmitBatch=%d: %d pairs pushed, want every one", eb, res.QueueStats.Pushes)
		}
	}
}

// TestFusedRunIgnoresHugeEmitBatch: a fused lane never stages a pair, so it
// builds no emit slab, and an EmitBatch far beyond memory (one a request may
// carry) costs a fused run nothing: it completes with the reference's
// result, on a batch run and on one worker driven directly.
func TestFusedRunIgnoresHugeEmitBatch(t *testing.T) {
	spec := countSpec(40, 25, 17)
	cfg := testConfig()
	cfg.EmitBatch = 1 << 40
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(res.Pairs), fmt.Sprint(mr.Reference(spec)); got != want {
		t.Fatalf("pairs %s, the reference %s", got, want)
	}
	p, err := NewPool[pair[int, int]](cfg, "test", true)
	if err != nil {
		t.Fatal(err)
	}
	p.RunWorker(context.Background(), 0, func(_ int, lane *Lane[pair[int, int]], _ *telemetry.Worker) {
		if p.Ship || cap(lane.slab) != 0 {
			t.Errorf("ships %v, slab of %d on a fused lane; want none", p.Ship, cap(lane.slab))
		}
	})
}
