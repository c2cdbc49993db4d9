package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"ramr/internal/spsc"
)

// WorkerReport is one worker's shard of the ledger: its role and id next to
// its books. Exact per-worker busy time is not a count: it is the worker's
// lane in the run's timeline (Config.Trace, internal/obs).
type WorkerReport struct {
	Engine string `json:"engine"`
	Role   string `json:"role"`
	ID     int    `json:"id"`
	Totals
}

// Totals is a run's books: a shard's counts, or their sum over a Ledger's
// shards. mr.Result's QueueStats and Steal are its Queue and Steal, and a
// Report carries it as is.
type Totals struct {
	Emitted  uint64 `json:"pairs_emitted"`
	Combined uint64 `json:"pairs_combined"` // popped from a ring, or folded where emitted
	Tasks    uint64 `json:"tasks"`
	// Queue is the rings' counters: the producer side on a mapper's shard,
	// the consumer side on a combiner slot's. Only a run that ships pairs
	// books them.
	Queue spsc.Stats `json:"queue"`
	// Steal is the map tasks' takes by steal class.
	Steal StealStats `json:"steal"`
}

// Add folds another shard's or run's books into t.
func (t *Totals) Add(o Totals) {
	t.Emitted += o.Emitted
	t.Combined += o.Combined
	t.Tasks += o.Tasks
	t.Queue.Add(o.Queue)
	t.Steal.Add(o.Steal)
}

// StealStats counts the map phase's task takes, bucketed by
// topology.StealClass. "Local" takes are ordinary dequeues from the
// worker's own group; "socket" and "remote" count true steals, split by
// whether a shared cache level still spans thief and victim. Counted at
// take time; RemoteExecuted is counted at task completion, so for an
// uncancelled run RemoteExecuted == SocketTasks + RemoteTasks exactly (a
// stolen batch is executed privately by the thief and never re-enqueued).
type StealStats struct {
	LocalBatches   uint64 `json:"local_batches"`
	LocalTasks     uint64 `json:"local_tasks"`
	SocketBatches  uint64 `json:"socket_batches"`
	SocketTasks    uint64 `json:"socket_tasks"`
	RemoteBatches  uint64 `json:"remote_batches"`
	RemoteTasks    uint64 `json:"remote_tasks"`
	RemoteExecuted uint64 `json:"remote_executed"`
}

// Add folds another run's stats into the aggregate.
func (s *StealStats) Add(o StealStats) {
	s.LocalBatches += o.LocalBatches
	s.LocalTasks += o.LocalTasks
	s.SocketBatches += o.SocketBatches
	s.SocketTasks += o.SocketTasks
	s.RemoteBatches += o.RemoteBatches
	s.RemoteTasks += o.RemoteTasks
	s.RemoteExecuted += o.RemoteExecuted
}

// StolenTasks returns the tasks moved out of their seeded group.
func (s StealStats) StolenTasks() uint64 { return s.SocketTasks + s.RemoteTasks }

// TotalTasks returns all tasks taken, local and stolen.
func (s StealStats) TotalTasks() uint64 { return s.LocalTasks + s.StolenTasks() }

// StealRate returns the fraction of tasks that were stolen; zero when no
// tasks were taken.
func (s StealStats) StealRate() float64 {
	t := s.TotalTasks()
	if t == 0 {
		return 0
	}
	return float64(s.StolenTasks()) / float64(t)
}

// Balanced reports the conservation invariant: every stolen task was
// executed by its thief. It holds for every run that completes without
// cancellation or abort.
func (s StealStats) Balanced() bool { return s.StolenTasks() == s.RemoteExecuted }

// String renders the counters on one line for reports.
func (s StealStats) String() string {
	return fmt.Sprintf("%d local tasks (%d batches), %d socket-stolen (%d), %d remote-stolen (%d), %d executed remotely (%.1f%% steal rate)",
		s.LocalTasks, s.LocalBatches, s.SocketTasks, s.SocketBatches,
		s.RemoteTasks, s.RemoteBatches, s.RemoteExecuted, s.StealRate()*100)
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
		row := WorkerReport{Engine: w.engine, Role: w.role, ID: w.id, Totals: w.books()}
		rep.Workers = append(rep.Workers, row)
		rep.Totals.Add(row.Totals)
	}
	if t.ledger != nil {
		rep.Engine = t.ledger.engine
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
	q, st := tot.Queue, tot.Steal
	fmt.Fprintf(w, "pairs: %d emitted, %d combined; %d tasks, %d batches, %d failed pushes, %dus slept\n",
		tot.Emitted, tot.Combined, tot.Tasks, q.BatchCalls, q.FailedPush, q.SleepMicros)
	if q.Pushes > 0 {
		fmt.Fprintf(w, "rings: %d pushed, %d popped; %d empty polls, %d short polls\n",
			q.Pushes, q.Pops, q.EmptyPolls, q.ShortPolls)
	}
	if st.TotalTasks() > 0 {
		fmt.Fprintf(w, "steals: %d local tasks, %d socket, %d remote (%d executed remotely)\n",
			st.LocalTasks, st.SocketTasks, st.RemoteTasks, st.RemoteExecuted)
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
