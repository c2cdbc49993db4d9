package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// WorkerReport is one worker's shard of the ledger, as counts. Exact
// per-worker busy time is not a count: it is the worker's lane in the run's
// timeline (Config.Trace, internal/obs).
type WorkerReport struct {
	Engine      string `json:"engine"`
	Role        string `json:"role"`
	ID          int    `json:"id"`
	Emitted     uint64 `json:"pairs_emitted"`
	Combined    uint64 `json:"pairs_combined"`
	Tasks       uint64 `json:"tasks"`
	Batches     uint64 `json:"batches"`
	FailedPush  uint64 `json:"failed_pushes"`
	SleepMicros uint64 `json:"sleep_micros"`
	// Steal counters (task-taking workers only): takes from the worker's
	// own group, tasks stolen from cache-sharing and cross-interconnect
	// groups, and stolen tasks this worker completed.
	LocalTakes     uint64 `json:"steal_local_tasks,omitempty"`
	SocketSteals   uint64 `json:"steal_socket_tasks,omitempty"`
	RemoteSteals   uint64 `json:"steal_remote_tasks,omitempty"`
	RemoteExecuted uint64 `json:"remote_executed,omitempty"`
	// Work conservation: map tasks run on a combiner's shard, and pairs
	// the worker folded where it emitted them.
	TasksHelped uint64 `json:"tasks_helped,omitempty"`
	PairsFolded uint64 `json:"pairs_folded,omitempty"`
}

// Totals is a Ledger's sum over its shards: the run's books.
// mr.Result's QueueStats, Steal and Help are converted from it
// (core.Books), and a Report carries it as is.
type Totals struct {
	Emitted        uint64 `json:"pairs_emitted"`
	Combined       uint64 `json:"pairs_combined"` // popped from a ring, or folded where emitted
	Tasks          uint64 `json:"tasks"`
	Batches        uint64 `json:"batches"` // consume batch calls
	FailedPush     uint64 `json:"failed_pushes"`
	SleepMicros    uint64 `json:"sleep_micros"`
	LocalTakes     uint64 `json:"steal_local_tasks"`
	SocketSteals   uint64 `json:"steal_socket_tasks"`
	RemoteSteals   uint64 `json:"steal_remote_tasks"`
	RemoteExecuted uint64 `json:"remote_executed"`
	// The mr.HelpStats of the run.
	TasksHelped       uint64 `json:"tasks_helped,omitempty"`
	FoldedByCombiners uint64 `json:"pairs_folded_by_combiners,omitempty"`
	FoldedByMappers   uint64 `json:"pairs_folded_by_mappers,omitempty"`
	// The ring counters, from which the ring shares are computed. Only a
	// run that ships pairs books them, so a fused run's JSON leaves them
	// out.
	Pushes     uint64 `json:"pushes,omitempty"`
	Pops       uint64 `json:"pops,omitempty"`
	EmptyPolls uint64 `json:"empty_polls,omitempty"`
	ShortPolls uint64 `json:"short_polls,omitempty"`
	// The steal batches. A job document carries them under its steal
	// section, so the report's JSON leaves them out.
	LocalBatches  uint64 `json:"-"`
	SocketBatches uint64 `json:"-"`
	RemoteBatches uint64 `json:"-"`
}

// Add folds another run's books into t.
func (t *Totals) Add(o Totals) {
	t.Emitted += o.Emitted
	t.Combined += o.Combined
	t.Tasks += o.Tasks
	t.Batches += o.Batches
	t.FailedPush += o.FailedPush
	t.SleepMicros += o.SleepMicros
	t.LocalTakes += o.LocalTakes
	t.SocketSteals += o.SocketSteals
	t.RemoteSteals += o.RemoteSteals
	t.RemoteExecuted += o.RemoteExecuted
	t.TasksHelped += o.TasksHelped
	t.FoldedByCombiners += o.FoldedByCombiners
	t.FoldedByMappers += o.FoldedByMappers
	t.Pushes += o.Pushes
	t.Pops += o.Pops
	t.EmptyPolls += o.EmptyPolls
	t.ShortPolls += o.ShortPolls
	t.LocalBatches += o.LocalBatches
	t.SocketBatches += o.SocketBatches
	t.RemoteBatches += o.RemoteBatches
}

// Report is the structured result of one instrumented run, read from its
// ledger when the run ends: the shards, their totals and per-phase
// throughput.
type Report struct {
	Engine         string             `json:"engine"`
	DurationMicros int64              `json:"duration_us"`
	Workers        []WorkerReport     `json:"workers"`
	Totals         Totals             `json:"totals"`
	PhaseSeconds   map[string]float64 `json:"phase_seconds,omitempty"`
	// Throughput is pairs per second per phase: "map" is emitted pairs
	// over the map-combine phase, "combine" is combined pairs over it.
	Throughput map[string]float64 `json:"throughput_pairs_per_sec,omitempty"`
}

// buildReportLocked assembles the report from the attached ledger; t.mu is
// held.
func (t *Telemetry) buildReportLocked(phases map[string]float64) *Report {
	rep := &Report{
		DurationMicros: t.elapsedLocked().Microseconds(),
		PhaseSeconds:   phases,
	}
	for _, w := range t.workersLocked() {
		rep.Workers = append(rep.Workers, WorkerReport{
			Engine:         w.engine,
			Role:           w.role,
			ID:             w.id,
			Emitted:        w.emitted.Load(),
			Combined:       w.combined(),
			Tasks:          w.tasks.Load(),
			Batches:        w.batchCalls.Load(),
			FailedPush:     w.failedPush.Load(),
			SleepMicros:    w.sleepMicros.Load(),
			LocalTakes:     w.stealTasks[0].Load(),
			SocketSteals:   w.stealTasks[1].Load(),
			RemoteSteals:   w.stealTasks[2].Load(),
			RemoteExecuted: w.remoteExecuted.Load(),
			TasksHelped:    w.combinerTasks(),
			PairsFolded:    w.folded.Load(),
		})
	}
	if t.ledger != nil {
		rep.Engine, rep.Totals = t.ledger.engine, t.ledger.Totals()
	}
	if mc := phases["map-combine"]; mc > 0 {
		rep.Throughput = map[string]float64{
			"map":     float64(rep.Totals.Emitted) / mc,
			"combine": float64(rep.Totals.Combined) / mc,
		}
	}
	return rep
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the report as human-readable text: counter totals, with
// the ring counters when the run shipped pairs.
func (r *Report) Summary(w io.Writer) error {
	tot := r.Totals
	_, err := fmt.Fprintf(w, "telemetry [%s]: %d workers over %v\n",
		r.Engine, len(r.Workers), time.Duration(r.DurationMicros)*time.Microsecond)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pairs: %d emitted, %d combined; %d tasks, %d batches, %d failed pushes, %dus slept\n",
		tot.Emitted, tot.Combined, tot.Tasks, tot.Batches, tot.FailedPush, tot.SleepMicros)
	if tot.Pushes > 0 {
		fmt.Fprintf(w, "rings: %d pushed, %d popped; %d empty polls, %d short polls\n",
			tot.Pushes, tot.Pops, tot.EmptyPolls, tot.ShortPolls)
	}
	if stolen := tot.SocketSteals + tot.RemoteSteals; stolen > 0 || tot.LocalTakes > 0 {
		fmt.Fprintf(w, "steals: %d local tasks, %d socket, %d remote (%d executed remotely)\n",
			tot.LocalTakes, tot.SocketSteals, tot.RemoteSteals, tot.RemoteExecuted)
	}
	if folded := tot.FoldedByCombiners + tot.FoldedByMappers; folded > 0 {
		fmt.Fprintf(w, "helped: %d tasks mapped by combiners (%d pairs folded in place), %d pairs folded in place by mappers\n",
			tot.TasksHelped, tot.FoldedByCombiners, tot.FoldedByMappers)
	}
	for _, name := range sortedKeys(r.Throughput) {
		fmt.Fprintf(w, "throughput %-8s %.3g pairs/s\n", name, r.Throughput[name])
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
