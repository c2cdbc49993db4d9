package core

import (
	"context"
	"sync"
	"sync/atomic"

	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// Pool is one run's workers, placed once: the placement decision of §III-B
// (Fig. 3) and everything that follows from it (DESIGN.md §5.2). NewPool
// builds the pinning plan and, if its caller lets the run ship, asks the plan
// whether pairs ship (Plan.ShipsPairs). If not, the pool is Plan.FusedPool's
// workers, each folding what it maps into containers of its own, and no
// ring, gate or combiner slot is built. If so, it is the paper's pipeline: a
// ring per mapper, and combiner slot j consuming, for the whole run, the
// rings of the mappers QueueAssignment placed beside it. Only the batch
// body lets a run ship; a stream session is always one fused pool. The pool
// also keeps the run's ledger and its failure latch. The one driver
// (Driver, engine.go) supplies the task source, the per-task step, the
// folds and the finish.
type Pool[E any] struct {
	Machine *topology.Machine
	// Ship reports that the run may ship and its plan puts a combiner on an
	// SMT sibling of its mappers: only then are rings and combiner slots
	// built.
	Ship bool
	// CPUs has one entry per task-taking worker (-1 = unpinned): the fused
	// pool's, or on a sibling plan the mappers'.
	CPUs []int
	// Width bounds the run's parallel reduce, sort and seal.
	Width int
	// Owners counts the container owners, numbered as the driver's folds
	// are: the combiner slots on a sibling plan, else the fused workers.
	Owners int
	// Ledger holds the run's books: a shard per worker.
	Ledger *telemetry.Ledger

	engine string
	cfg    mr.Config
	plan   Plan
	queues []*spsc.Queue[E] // per mapper, on a sibling plan
	gates  []*spsc.Gate     // per combiner slot: where it parks when idle
	batch  int              // the consume batch, within [1, ring capacity]
	wg     sync.WaitGroup

	failed atomic.Pointer[error] // the run's first error: set, it dooms the run
	dying  chan struct{}         // closed on the first failure
}

// NewPool validates cfg's grant against its resolved machine and places the
// run's workers on it under cfg.Pin; engine names the run in pprof labels,
// PanicError and the ledger. mayShip is the caller's permission to build the
// pipeline: without it the pool is fused whatever the plan.
func NewPool[E any](cfg mr.Config, engine string, mayShip bool) (*Pool[E], error) {
	machine := cfg.ResolveMachine()
	if err := cfg.ValidateGrant(machine); err != nil {
		return nil, err
	}
	mappers, combiners := cfg.Mappers, cfg.NumCombiners()
	plan := BuildPlanOn(machine, cfg.CPUGrant, mappers, combiners, cfg.Pin)
	p := &Pool[E]{
		Machine: machine,
		Ship:    mayShip && plan.ShipsPairs(machine),
		CPUs:    plan.FusedPool(cfg.CPUGrant),
		Ledger:  telemetry.NewLedger(engine),
		engine:  engine,
		cfg:     cfg,
		plan:    plan,
		dying:   make(chan struct{}),
	}
	p.Width, p.Owners = len(p.CPUs), len(p.CPUs)
	if !p.Ship {
		return p, nil
	}
	p.CPUs, p.Width, p.Owners = plan.MapperCPU, mappers+combiners, combiners
	p.queues = make([]*spsc.Queue[E], mappers)
	for i := range p.queues {
		q, err := spsc.New[E](cfg.QueueCapacity, spsc.WaitSleep)
		if err != nil {
			return nil, err
		}
		p.queues[i] = q
	}
	// A batch larger than the ring could never fill while its producer is
	// blocked on a full ring, deadlocking the pipeline.
	p.batch = min(cfg.BatchSize, p.queues[0].Cap())
	p.gates = make([]*spsc.Gate, combiners)
	for j := range p.gates {
		p.gates[j] = spsc.NewGate()
	}
	return p, nil
}

// Start starts the run: it hands the ledger to cfg.Telemetry, if set; on a
// shipping pool it starts the combiner slots, slot j folding each consumed
// ring segment through fold(j) (a fused pool never calls fold); and it
// starts a goroutine per task-taking worker running work (see RunWorker).
// Wait joins them.
func (p *Pool[E]) Start(ctx context.Context, work func(w int, lane *Lane[E], tw *telemetry.Worker), fold func(slot int) func([]E)) {
	if tel := p.cfg.Telemetry; tel != nil {
		tel.BeginRun(p.Ledger)
	}
	p.startSlots(ctx, fold)
	for w := range p.CPUs {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.RunWorker(ctx, w, work)
		}()
	}
}

// RunWorker runs work as task-taking worker w, on its lane and on a ledger
// shard it registers, under the worker prologue: worker w < cfg.Mappers is
// map worker w, and on a fused pool the rest are combine workers. It always
// ends by booking the lane and closing its ring, if it has one — the slot
// must be notified however the mapper ends, and a push after Close panics.
// A panicked Map leaves a half-built slab whose elements must never reach
// Combine (the run is doomed), so after a panic the error goes to Fail first
// and the exit flush is skipped.
func (p *Pool[E]) RunWorker(ctx context.Context, w int, work func(w int, lane *Lane[E], tw *telemetry.Worker)) {
	var q *spsc.Queue[E]
	if p.Ship {
		q = p.queues[w]
	}
	l := NewLane(q, p.cfg.EmitBatch, w, p.cfg.Hooks)
	r, id := workerRole(w, p.cfg.Mappers)
	l.tw = p.Ledger.Register(r.label, id)
	exit := func(failed bool) {
		if !failed {
			l.flush()
		}
		l.book()
		if q != nil {
			q.Close()
		}
	}
	runWorker(ctx, p.engine, r, id, p.CPUs[w], func() {
		work(w, l, l.tw)
		exit(false)
	}, func(pe *mr.PanicError) {
		p.Fail(pe)
		exit(true)
	})
}

// Wait joins the pool's workers and slots, then reports every ring to the
// QueueObserver hook: a failed run still reports its rings' drain state.
func (p *Pool[E]) Wait() {
	p.wg.Wait()
	if hk := p.cfg.Hooks; hk != nil && hk.QueueObserver != nil {
		for i, q := range p.queues {
			hk.QueueObserver(i, q.Drained(), q.Snapshot())
		}
	}
}

// Fail records err if it is the run's first error and, on that call alone,
// dooms the run: the OnAbort hook fires, Dying closes, and every parked
// slot is woken to discard-drain its rings, so producers blocked on full
// rings can finish. The error is the abort latch — one compare-and-swap
// sets both — so no worker sees an error on a run it may still take tasks
// for. A nil err is ignored.
func (p *Pool[E]) Fail(err error) {
	if err == nil || !p.failed.CompareAndSwap(nil, &err) {
		return
	}
	p.cfg.Hooks.FireOnAbort()
	close(p.dying)
	for _, g := range p.gates {
		g.Wake()
	}
}

// Err returns the run's first error.
func (p *Pool[E]) Err() error {
	if e := p.failed.Load(); e != nil {
		return *e
	}
	return nil
}

// Aborted reports whether the run is doomed, exactly when Err is non-nil;
// its workers stop taking tasks.
func (p *Pool[E]) Aborted() bool { return p.failed.Load() != nil }

// Dying is closed once the run is doomed.
func (p *Pool[E]) Dying() <-chan struct{} { return p.dying }
