// Package tuner closes the telemetry→control loop of the runtime: it
// turns the live signals PR 3 made observable — sampled queue occupancy,
// failed-push and short-poll rates, per-phase pair throughput — into knob
// adjustments applied while a job is still running.
//
// The paper's headline results all rest on hand-tuned settings chosen per
// workload and per machine by offline sweeps (§IV): the mapper-to-combiner
// ratio, the consume batch size and the queue capacity. Lu et al.'s Xeon Phi study shows the
// optimal point shifts drastically across workloads on one chip, and
// OS4M-style operation-level schedulers rebalance MapReduce work online;
// this package is the runtime's equivalent of those results.
//
// Three pieces:
//
//   - Controller: a deterministic feedback controller stepped once per
//     epoch (a fixed number of telemetry sampler ticks). It sizes the
//     elastic combiner pool from backpressure signals (grow on sustained
//     high occupancy + failed pushes, shrink when short polls dominate)
//     and runs an AIMD loop over the consume batch size, with hysteresis
//     and a revert rule so a step that costs throughput is undone. Given
//     a fixed Signals series, the decision sequence is reproducible bit
//     for bit.
//
//   - Search: the offline mode — seeded coordinate descent over
//     ratio × queue capacity × batch size with a small evaluation cache
//     and early stopping, the automated version of the paper's manual
//     sweeps.
//
//   - Profile: the JSON artifact a search emits, loadable as a warm
//     start (mr.Config.ApplyProfile).
//
// The package deliberately depends on nothing but the standard library so
// every layer of the runtime (mr, core, commands) can import it without
// cycles; the engine adapts telemetry readings into Signals and applies
// Decisions to its pool and queues.
package tuner

import "fmt"

// Defaults for Config fields left zero. Epochs are measured in sampler
// ticks, not wall time, so one epoch at the default telemetry interval
// (200us) spans ~3.2ms — long enough to see hundreds of batches, short
// enough to converge within small runs.
const (
	DefaultEpochTicks = 16
	DefaultHysteresis = 2

	DefaultGrowOccupancy   = 0.80
	DefaultGrowFailedPush  = 0.02
	DefaultShrinkShortPoll = 0.60
	DefaultShrinkOccupancy = 0.10
	// DefaultGrowImbalance is the queue occupancy-imbalance ratio
	// (max/mean depth, 1.0 = uniform) beyond which a backpressured epoch
	// grows the pool even though mean occupancy looks fine: one hot queue
	// is the straggler signature of a skewed key distribution.
	DefaultGrowImbalance = 2.0

	DefaultMinBatch  = 16
	DefaultMaxBatch  = 8192
	DefaultBatchStep = 64

	// DefaultRevertMargin is the relative throughput drop that makes the
	// controller undo its previous knob step: hill climbing's "that was
	// downhill" test, with enough slack to ignore sampling noise.
	DefaultRevertMargin = 0.15
)

// Config enables and parameterizes the online tuner. Assign a non-nil
// Config to mr.Config.Tuner; nil keeps today's fully static behaviour
// (the engines then pay only nil checks). The zero value of every field
// selects a documented default, so &tuner.Config{} is a sensible start.
type Config struct {
	// EpochTicks is the controller's epoch length in telemetry sampler
	// ticks; decisions are made only at epoch boundaries. 0 selects
	// DefaultEpochTicks.
	EpochTicks int

	// Hysteresis is how many consecutive epochs a pool signal must stay
	// beyond its threshold before the pool grows or shrinks, preventing
	// oscillation on a noisy boundary. 0 selects DefaultHysteresis.
	Hysteresis int

	// GrowOccupancy and GrowFailedPush are the high-water marks: when the
	// epoch's sampled occupancy p90 exceeds GrowOccupancy AND the
	// failed-push rate exceeds GrowFailedPush for Hysteresis consecutive
	// epochs, one combiner is added. 0 selects the defaults.
	GrowOccupancy  float64
	GrowFailedPush float64

	// GrowImbalance is the queue occupancy-imbalance high-water mark: an
	// epoch whose QueueImbalance exceeds it while producers see failed
	// pushes counts toward the grow streak even when mean occupancy is
	// below GrowOccupancy, so the pool grows toward a single hot queue
	// instead of waiting for every ring to fill. 0 selects
	// DefaultGrowImbalance.
	GrowImbalance float64

	// ShrinkShortPoll and ShrinkOccupancy are the low-water marks: when
	// the short-poll rate exceeds ShrinkShortPoll AND occupancy p90 stays
	// under ShrinkOccupancy for Hysteresis consecutive epochs, one
	// combiner is parked. 0 selects the defaults.
	ShrinkShortPoll float64
	ShrinkOccupancy float64

	// MinCombiners/MaxCombiners bound the elastic pool. 0 lets the
	// engine derive them (min 1, max = the mapper count).
	MinCombiners int
	MaxCombiners int

	// MinBatch/MaxBatch/BatchStep bound and step the consume batch size
	// AIMD loop (additive increase by BatchStep, multiplicative decrease
	// by halving). 0 selects the defaults; the engine additionally clamps
	// the batch to the queue capacity.
	MinBatch  int
	MaxBatch  int
	BatchStep int

	// RevertMargin is the relative throughput regression that undoes the
	// previous knob step. 0 selects DefaultRevertMargin.
	RevertMargin float64

	// Schedule, when non-empty, replaces the signal-driven pool logic
	// with a scripted combiner count per epoch (the last entry holds
	// forever) and disables the knob loops. It exists for deterministic
	// churn testing — the fault-injection sweep drives grow/shrink
	// transitions through it — and for replaying a recorded run.
	Schedule []int
}

// withDefaults returns c with every zero field replaced by its default.
func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.EpochTicks, DefaultEpochTicks)
	def(&c.Hysteresis, DefaultHysteresis)
	deff(&c.GrowOccupancy, DefaultGrowOccupancy)
	deff(&c.GrowFailedPush, DefaultGrowFailedPush)
	deff(&c.GrowImbalance, DefaultGrowImbalance)
	deff(&c.ShrinkShortPoll, DefaultShrinkShortPoll)
	deff(&c.ShrinkOccupancy, DefaultShrinkOccupancy)
	def(&c.MinBatch, DefaultMinBatch)
	def(&c.MaxBatch, DefaultMaxBatch)
	def(&c.BatchStep, DefaultBatchStep)
	deff(&c.RevertMargin, DefaultRevertMargin)
	return c
}

// Validate reports the first problem with the configuration. Zero fields
// are legal (they select defaults); set fields must be coherent.
func (c *Config) Validate() error {
	switch {
	case c == nil:
		return nil
	case c.EpochTicks < 0:
		return fmt.Errorf("tuner: EpochTicks must be >= 0, got %d", c.EpochTicks)
	case c.Hysteresis < 0:
		return fmt.Errorf("tuner: Hysteresis must be >= 0, got %d", c.Hysteresis)
	case c.MinCombiners < 0 || c.MaxCombiners < 0:
		return fmt.Errorf("tuner: combiner bounds must be >= 0, got [%d, %d]", c.MinCombiners, c.MaxCombiners)
	case c.MinCombiners > 0 && c.MaxCombiners > 0 && c.MinCombiners > c.MaxCombiners:
		return fmt.Errorf("tuner: MinCombiners %d > MaxCombiners %d", c.MinCombiners, c.MaxCombiners)
	case c.MinBatch < 0 || c.MaxBatch < 0:
		return fmt.Errorf("tuner: batch bounds must be >= 0, got [%d, %d]", c.MinBatch, c.MaxBatch)
	case c.MinBatch > 0 && c.MaxBatch > 0 && c.MinBatch > c.MaxBatch:
		return fmt.Errorf("tuner: MinBatch %d > MaxBatch %d", c.MinBatch, c.MaxBatch)
	case c.RevertMargin < 0 || c.RevertMargin >= 1:
		return fmt.Errorf("tuner: RevertMargin must be in [0, 1), got %g", c.RevertMargin)
	case c.GrowImbalance < 0:
		return fmt.Errorf("tuner: GrowImbalance must be >= 0, got %g", c.GrowImbalance)
	}
	for i, n := range c.Schedule {
		if n < 1 {
			return fmt.Errorf("tuner: Schedule[%d] must be >= 1, got %d", i, n)
		}
	}
	return nil
}

// Signals is one epoch's observed telemetry deltas, the controller's only
// input. The engine computes them from internal/telemetry between epoch
// boundaries.
type Signals struct {
	// OccP90 is the 90th percentile of sampled queue occupancy
	// (depth/capacity, in [0,1]) across all queues and ticks of the
	// epoch.
	OccP90 float64 `json:"occ_p90"`
	// FailedPushRate is failed pushes over push attempts within the
	// epoch — the producer-side backpressure signal.
	FailedPushRate float64 `json:"failed_push_rate"`
	// ShortPollRate is short polls over all consume polls within the
	// epoch — the consumer-side starvation signal.
	ShortPollRate float64 `json:"short_poll_rate"`
	// QueueImbalance is the p90 of the per-tick occupancy-imbalance
	// ratio (max/mean queue depth) over the epoch: 1.0 means uniformly
	// loaded rings, values toward the queue count mean one hot queue —
	// the operation-level skew signal work stealing and the elastic pool
	// react to.
	QueueImbalance float64 `json:"queue_imbalance"`
	// CombinedPairs is the number of pairs folded by combiners during
	// the epoch; divided by Ticks it is the controller's throughput
	// objective.
	CombinedPairs uint64 `json:"combined_pairs"`
	// Ticks is how many sampler ticks the epoch actually spanned (the
	// final epoch of a run may be short).
	Ticks int `json:"ticks"`
}

// rate is the throughput objective: pairs combined per sampler tick.
func (s Signals) rate() float64 {
	if s.Ticks <= 0 {
		return 0
	}
	return float64(s.CombinedPairs) / float64(s.Ticks)
}

// Settings is one complete assignment of the online-tunable knobs.
type Settings struct {
	// Combiners is the active combiner pool size.
	Combiners int `json:"combiners"`
	// Batch is the consume batch size.
	Batch int `json:"batch"`
}

// Decision is one epoch's controller output: the settings now in force,
// and why.
type Decision struct {
	// Epoch is the 0-based epoch index.
	Epoch int `json:"epoch"`
	// Signals are the observations the decision was based on.
	Signals Signals `json:"signals"`
	// Settings are the knob values in force after the decision.
	Settings Settings `json:"settings"`
	// Action names what changed: "hold", "grow", "shrink",
	// "batch+", "batch-", "revert", or "schedule".
	Action string `json:"action"`
}

// Report is the inspectable record of one tuned run, attached to
// mr.Result.TunerReport.
type Report struct {
	// EpochTicks is the epoch length in sampler ticks.
	EpochTicks int `json:"epoch_ticks"`
	// Initial and Final bracket the run's knob trajectory.
	Initial Settings `json:"initial"`
	Final   Settings `json:"final"`
	// Epochs is the full decision log.
	Epochs []Decision `json:"epochs"`
	// Settled reports whether the controller held its settings over the
	// final two epochs — the convergence indicator EXPERIMENTS.md plots.
	Settled bool `json:"settled"`
}

// Controller is the deterministic feedback controller. It is not
// goroutine-safe: the engine steps it from a single goroutine (the
// telemetry sampler's).
type Controller struct {
	cfg Config

	cur   Settings
	epoch int

	growStreak   int
	shrinkStreak int
	cooldown     int // epochs to hold after a revert

	lastDelta int // the previous epoch's batch step; 0 when it made none
	prevRate  float64
	havePrev  bool

	report Report
}

// NewController returns a controller starting from initial settings.
// cfg's zero fields are defaulted; initial.Combiners is clamped to the
// configured pool bounds by the caller (the engine knows the real
// mapper count).
func NewController(cfg Config, initial Settings) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg: cfg,
		cur: initial,
	}
	c.report = Report{
		EpochTicks: cfg.EpochTicks,
		Initial:    initial,
		Final:      initial,
	}
	return c
}

// EpochTicks returns the effective epoch length in sampler ticks.
func (c *Controller) EpochTicks() int { return c.cfg.EpochTicks }

// Settings returns the knob values currently in force.
func (c *Controller) Settings() Settings { return c.cur }

// Advance consumes one epoch's signals and returns the decision for the
// next epoch. The returned Settings are what the engine must apply.
func (c *Controller) Advance(sig Signals) Decision {
	action := "hold"
	switch {
	case len(c.cfg.Schedule) > 0:
		// Scripted mode: replay the combiner schedule, hold knobs.
		i := c.epoch
		if i >= len(c.cfg.Schedule) {
			i = len(c.cfg.Schedule) - 1
		}
		n := c.clampCombiners(c.cfg.Schedule[i])
		if n != c.cur.Combiners {
			c.cur.Combiners = n
			action = "schedule"
		}
	case c.maybeRevert(sig):
		action = "revert"
	default:
		action = c.step(sig)
	}

	c.prevRate = sig.rate()
	c.havePrev = true

	d := Decision{Epoch: c.epoch, Signals: sig, Settings: c.cur, Action: action}
	c.epoch++
	c.report.Epochs = append(c.report.Epochs, d)
	c.report.Final = c.cur
	n := len(c.report.Epochs)
	c.report.Settled = n >= 2 &&
		c.report.Epochs[n-1].Settings == c.report.Epochs[n-2].Settings
	return d
}

// maybeRevert undoes the previous batch step when the epoch it governed
// lost more than RevertMargin of throughput — the hill-climber's downhill
// test. Pool changes are never auto-reverted (their effect is what the
// hysteresis thresholds measure).
func (c *Controller) maybeRevert(sig Signals) bool {
	if c.lastDelta == 0 || !c.havePrev || c.prevRate <= 0 {
		return false
	}
	if sig.rate() >= c.prevRate*(1-c.cfg.RevertMargin) {
		return false
	}
	c.cur.Batch = c.clampBatch(c.cur.Batch - c.lastDelta)
	c.lastDelta = 0
	c.cooldown = c.cfg.Hysteresis
	return true
}

// step runs the signal-driven logic: pool sizing first (with hysteresis),
// then at most one AIMD batch step per epoch so regressions are
// attributable to a single change.
func (c *Controller) step(sig Signals) string {
	c.lastDelta = 0

	if c.cooldown > 0 {
		c.cooldown--
		return "hold"
	}

	// --- Elastic pool: grow on sustained backpressure — uniformly full
	// rings, or one hot ring (skew) while producers still fail pushes —
	// shrink on sustained starvation. Streaks implement the hysteresis.
	pressured := sig.OccP90 >= c.cfg.GrowOccupancy ||
		sig.QueueImbalance >= c.cfg.GrowImbalance
	if pressured && sig.FailedPushRate >= c.cfg.GrowFailedPush {
		c.growStreak++
	} else {
		c.growStreak = 0
	}
	if sig.ShortPollRate >= c.cfg.ShrinkShortPoll && sig.OccP90 <= c.cfg.ShrinkOccupancy {
		c.shrinkStreak++
	} else {
		c.shrinkStreak = 0
	}
	if c.growStreak >= c.cfg.Hysteresis {
		c.growStreak = 0
		if n := c.clampCombiners(c.cur.Combiners + 1); n != c.cur.Combiners {
			c.cur.Combiners = n
			return "grow"
		}
	}
	if c.shrinkStreak >= c.cfg.Hysteresis {
		c.shrinkStreak = 0
		if n := c.clampCombiners(c.cur.Combiners - 1); n != c.cur.Combiners {
			c.cur.Combiners = n
			return "shrink"
		}
	}

	// --- AIMD batch loop.
	if sig.ShortPollRate >= c.cfg.ShrinkShortPoll {
		// Combiners outpace mappers: a full batch rarely accumulates, so
		// halve toward responsiveness (MD).
		if b := c.clampBatch(c.cur.Batch / 2); b != c.cur.Batch {
			c.lastDelta = b - c.cur.Batch
			c.cur.Batch = b
			return "batch-"
		}
	} else if sig.OccP90 >= c.cfg.GrowOccupancy {
		// Rings run full: bigger blocks amortize more per wakeup (AI).
		if b := c.clampBatch(c.cur.Batch + c.cfg.BatchStep); b != c.cur.Batch {
			c.lastDelta = b - c.cur.Batch
			c.cur.Batch = b
			return "batch+"
		}
	}
	return "hold"
}

func (c *Controller) clampCombiners(n int) int {
	min, max := c.cfg.MinCombiners, c.cfg.MaxCombiners
	if min < 1 {
		min = 1
	}
	if max > 0 && n > max {
		n = max
	}
	if n < min {
		n = min
	}
	return n
}

func (c *Controller) clampBatch(b int) int {
	if b < c.cfg.MinBatch {
		b = c.cfg.MinBatch
	}
	if b > c.cfg.MaxBatch {
		b = c.cfg.MaxBatch
	}
	return b
}

// Report returns a copy of the decision log so far. Safe to call after
// the run has completed (the engine does not step the controller
// concurrently with reading the report).
func (c *Controller) Report() *Report {
	rep := c.report
	rep.Epochs = append([]Decision(nil), c.report.Epochs...)
	return &rep
}
