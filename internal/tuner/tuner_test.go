package tuner

import (
	"reflect"
	"testing"
)

func baseSettings() Settings {
	return Settings{Combiners: 2, Batch: 1000}
}

// congested is an epoch that should eventually grow the pool: rings near
// full, producers failing pushes, no short polls.
func congested() Signals {
	return Signals{OccP90: 0.95, FailedPushRate: 0.20, ShortPollRate: 0.0, CombinedPairs: 1000, Ticks: 16}
}

// starved is an epoch that should eventually shrink the pool: rings near
// empty, combiners mostly short-polling.
func starved() Signals {
	return Signals{OccP90: 0.02, FailedPushRate: 0.0, ShortPollRate: 0.9, CombinedPairs: 1000, Ticks: 16}
}

// quiet is an epoch inside the deadband: no rule should fire.
func quiet() Signals {
	return Signals{OccP90: 0.4, FailedPushRate: 0.0, ShortPollRate: 0.1, CombinedPairs: 1000, Ticks: 16}
}

// TestDeterminism: two controllers fed the same signal series must emit
// identical decision sequences — the controller makes no random choice.
func TestDeterminism(t *testing.T) {
	series := []Signals{congested(), congested(), starved(), quiet(), congested(), starved(), starved(), quiet(), congested(), congested()}
	run := func() []Decision {
		c := NewController(Config{MaxCombiners: 8}, baseSettings())
		var out []Decision
		for _, s := range series {
			out = append(out, c.Advance(s))
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same series diverged:\n%v\nvs\n%v", a, b)
	}
}

// TestHysteresisPreventsSingleEpochAction: one over-threshold epoch must
// not resize the pool; Hysteresis consecutive ones must.
func TestHysteresisPreventsSingleEpochAction(t *testing.T) {
	c := NewController(Config{Hysteresis: 3, MaxCombiners: 8}, baseSettings())
	d := c.Advance(congested())
	if d.Settings.Combiners != 2 {
		t.Fatalf("pool resized after one epoch: %+v", d)
	}
	c.Advance(congested())
	d = c.Advance(congested())
	if d.Settings.Combiners != 3 || d.Action != "grow" {
		t.Fatalf("pool did not grow after 3 congested epochs: %+v", d)
	}
	// An interleaved quiet epoch must reset the streak.
	c2 := NewController(Config{Hysteresis: 2, MaxCombiners: 8}, baseSettings())
	c2.Advance(congested())
	c2.Advance(quiet())
	d = c2.Advance(congested())
	if d.Settings.Combiners != 2 {
		t.Fatalf("streak survived a quiet epoch: %+v", d)
	}
}

// TestGrowOnImbalance: a skewed epoch — mean occupancy comfortably below
// GrowOccupancy but one hot ring pushing the imbalance ratio past
// GrowImbalance while producers fail pushes — must grow the pool, and
// imbalance alone (no backpressure) must not.
func TestGrowOnImbalance(t *testing.T) {
	skewed := Signals{OccP90: 0.30, QueueImbalance: 3.5, FailedPushRate: 0.10, CombinedPairs: 1000, Ticks: 16}
	c := NewController(Config{Hysteresis: 2, MaxCombiners: 8}, baseSettings())
	c.Advance(skewed)
	d := c.Advance(skewed)
	if d.Settings.Combiners != 3 || d.Action != "grow" {
		t.Fatalf("pool did not grow on sustained imbalance: %+v", d)
	}

	// Imbalance without failed pushes is not backpressure: hold.
	idleSkew := Signals{OccP90: 0.30, QueueImbalance: 3.5, FailedPushRate: 0.0, CombinedPairs: 1000, Ticks: 16}
	c2 := NewController(Config{Hysteresis: 2, MaxCombiners: 8}, baseSettings())
	for i := 0; i < 4; i++ {
		if d := c2.Advance(idleSkew); d.Action == "grow" {
			t.Fatalf("pool grew on imbalance without backpressure: %+v", d)
		}
	}

	// Below the imbalance threshold the old rule governs unchanged.
	mild := Signals{OccP90: 0.30, QueueImbalance: 1.2, FailedPushRate: 0.10, CombinedPairs: 1000, Ticks: 16}
	c3 := NewController(Config{Hysteresis: 2, MaxCombiners: 8}, baseSettings())
	for i := 0; i < 4; i++ {
		if d := c3.Advance(mild); d.Action == "grow" {
			t.Fatalf("pool grew below both high-water marks: %+v", d)
		}
	}
}

// TestShrinkOnStarvation: sustained short-poll dominance with empty rings
// parks a combiner, bounded below by MinCombiners.
func TestShrinkOnStarvation(t *testing.T) {
	c := NewController(Config{Hysteresis: 2, MinCombiners: 1, MaxCombiners: 8}, baseSettings())
	c.Advance(starved())
	d := c.Advance(starved())
	if d.Settings.Combiners != 1 || d.Action != "shrink" {
		t.Fatalf("pool did not shrink: %+v", d)
	}
	// Already at the floor: further starvation holds.
	c.Advance(starved())
	d = c.Advance(starved())
	if d.Settings.Combiners != 1 || d.Action == "shrink" {
		t.Fatalf("pool shrank below MinCombiners: %+v", d)
	}
}

// TestPoolBounds: growth saturates at MaxCombiners.
func TestPoolBounds(t *testing.T) {
	c := NewController(Config{Hysteresis: 1, MaxCombiners: 3}, baseSettings())
	for i := 0; i < 10; i++ {
		c.Advance(congested())
	}
	if got := c.Settings().Combiners; got != 3 {
		t.Fatalf("combiners = %d, want saturation at 3", got)
	}
}

// TestBatchAIMD: short-poll dominance (without the empty-ring condition
// that would shrink the pool) halves the batch; congestion grows it
// additively.
func TestBatchAIMD(t *testing.T) {
	// ShortPollRate high but OccP90 above ShrinkOccupancy: not a shrink
	// signal, so the batch rule fires.
	shortPolls := Signals{OccP90: 0.4, ShortPollRate: 0.9, CombinedPairs: 1000, Ticks: 16}
	c := NewController(Config{Hysteresis: 2, MinBatch: 100}, baseSettings())
	d := c.Advance(shortPolls)
	if d.Settings.Batch != 500 || d.Action != "batch-" {
		t.Fatalf("batch not halved: %+v", d)
	}

	// Congested epochs grow the batch by BatchStep once the pool rule is
	// out of the way (MaxCombiners pins the pool).
	c2 := NewController(Config{Hysteresis: 2, MaxCombiners: 2, BatchStep: 250}, baseSettings())
	var grew bool
	for i := 0; i < 6; i++ {
		if d := c2.Advance(congested()); d.Action == "batch+" {
			grew = true
			if d.Settings.Batch != 1250 {
				t.Fatalf("batch step wrong: %+v", d)
			}
			break
		}
	}
	if !grew {
		t.Fatalf("batch never grew under congestion: %+v", c2.Report())
	}
}

// TestRevertOnRegression: a knob step followed by a big throughput drop
// is undone and a cooldown holds the settings.
func TestRevertOnRegression(t *testing.T) {
	c := NewController(Config{Hysteresis: 2, MaxCombiners: 2, MinBatch: 100}, baseSettings())
	shortPolls := Signals{OccP90: 0.4, ShortPollRate: 0.9, CombinedPairs: 10000, Ticks: 16}
	d := c.Advance(shortPolls)
	if d.Action != "batch-" {
		t.Fatalf("setup step missing: %+v", d)
	}
	crash := Signals{OccP90: 0.4, ShortPollRate: 0.9, CombinedPairs: 1000, Ticks: 16}
	d = c.Advance(crash)
	if d.Action != "revert" || d.Settings.Batch != 1000 {
		t.Fatalf("regression not reverted: %+v", d)
	}
	d = c.Advance(Signals{OccP90: 0.95, FailedPushRate: 0.5, CombinedPairs: 1000, Ticks: 16})
	if d.Action != "hold" {
		t.Fatalf("cooldown not honored after revert: %+v", d)
	}
}

// TestScheduleReplay: scripted mode follows the schedule exactly, clamped
// to bounds, holding the last entry, and never touches the knobs.
func TestScheduleReplay(t *testing.T) {
	c := NewController(Config{Schedule: []int{3, 1, 99}, MaxCombiners: 4}, baseSettings())
	want := []int{3, 1, 4, 4, 4}
	for i, w := range want {
		d := c.Advance(congested())
		if d.Settings.Combiners != w {
			t.Fatalf("epoch %d: combiners = %d, want %d", i, d.Settings.Combiners, w)
		}
		if d.Settings.Batch != 1000 {
			t.Fatalf("schedule mode touched knobs: %+v", d)
		}
	}
}

// TestReportTrajectory: the report carries the full epoch log, initial
// and final settings, and the settled flag.
func TestReportTrajectory(t *testing.T) {
	c := NewController(Config{Hysteresis: 1, MaxCombiners: 4}, baseSettings())
	for i := 0; i < 3; i++ {
		c.Advance(congested())
	}
	rep := c.Report()
	if len(rep.Epochs) != 3 {
		t.Fatalf("epoch log has %d entries, want 3", len(rep.Epochs))
	}
	if rep.Initial.Combiners != 2 {
		t.Fatalf("initial settings lost: %+v", rep.Initial)
	}
	if rep.Final != rep.Epochs[2].Settings {
		t.Fatalf("final settings mismatch: %+v vs %+v", rep.Final, rep.Epochs[2].Settings)
	}
	quiet := NewController(Config{MaxCombiners: 2}, baseSettings())
	quiet.Advance(Signals{})
	quiet.Advance(Signals{})
	if !quiet.Report().Settled {
		t.Fatalf("quiet controller did not settle: %+v", quiet.Report())
	}
}

// TestConfigValidate covers the representative invalid shapes.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{EpochTicks: -1},
		{Hysteresis: -1},
		{MinCombiners: 4, MaxCombiners: 2},
		{MinBatch: 100, MaxBatch: 10},
		{RevertMargin: 1.5},
		{GrowImbalance: -1},
		{Schedule: []int{2, 0}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	good := Config{EpochTicks: 8, Schedule: []int{1, 2, 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected good config: %v", err)
	}
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config must validate: %v", err)
	}
}
