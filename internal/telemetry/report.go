package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// QueueReport summarizes one queue's sampled occupancy.
type QueueReport struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
	// Occupancy holds depth/capacity percentiles over the run's samples.
	Occupancy Percentiles `json:"occupancy"`
}

// WorkerReport is one worker's counter totals plus its sampled busy
// fraction (share of samples observed in StateWorking, StateDraining or
// StateHelping).
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
	// Steal counters (mapper role only): takes from the worker's own
	// group, tasks stolen from cache-sharing and cross-interconnect
	// groups, and stolen tasks this worker completed.
	LocalTakes     uint64 `json:"steal_local_tasks,omitempty"`
	SocketSteals   uint64 `json:"steal_socket_tasks,omitempty"`
	RemoteSteals   uint64 `json:"steal_remote_tasks,omitempty"`
	RemoteExecuted uint64 `json:"remote_executed,omitempty"`
	// Work conservation: map tasks a combiner slot ran, and pairs the
	// worker folded in place (a helping slot's, or a mapper's on a full
	// ring); Helping is the share of samples spent in StateHelping.
	TasksHelped uint64  `json:"tasks_helped,omitempty"`
	PairsFolded uint64  `json:"pairs_folded,omitempty"`
	Helping     float64 `json:"helping,omitempty"`
	Busy        float64 `json:"busy"`
}

// Totals sums the worker counters across the run.
type Totals struct {
	Emitted        uint64 `json:"pairs_emitted"`
	Combined       uint64 `json:"pairs_combined"`
	Tasks          uint64 `json:"tasks"`
	Batches        uint64 `json:"batches"`
	FailedPush     uint64 `json:"failed_pushes"`
	SleepMicros    uint64 `json:"sleep_micros"`
	LocalTakes     uint64 `json:"steal_local_tasks"`
	SocketSteals   uint64 `json:"steal_socket_tasks"`
	RemoteSteals   uint64 `json:"steal_remote_tasks"`
	RemoteExecuted uint64 `json:"remote_executed"`
	// The mr.HelpStats of the run, summed from the worker shards.
	TasksHelped       uint64 `json:"tasks_helped,omitempty"`
	FoldedByCombiners uint64 `json:"pairs_folded_by_combiners,omitempty"`
	FoldedByMappers   uint64 `json:"pairs_folded_by_mappers,omitempty"`
}

// SamplePoint is one time-series entry in the JSON report. Depths index
// Report.Queues, States index Report.Workers.
type SamplePoint struct {
	TMicros   int64   `json:"t_us"`
	Depths    []int   `json:"depths,omitempty"`
	States    []uint8 `json:"states,omitempty"`
	Imbalance float64 `json:"imbalance,omitempty"`
}

// Report is the structured result of one instrumented run: counter totals,
// occupancy percentiles per queue, per-phase throughput, and the sampled
// time-series itself.
type Report struct {
	Engine         string         `json:"engine"`
	DurationMicros int64          `json:"duration_us"`
	IntervalMicros int64          `json:"sample_interval_us"`
	SampleCount    int            `json:"sample_count"`
	Queues         []QueueReport  `json:"queues"`
	Workers        []WorkerReport `json:"workers"`
	Totals         Totals         `json:"totals"`
	// Imbalance summarizes the per-tick queue occupancy-imbalance ratio
	// (max/mean depth) over the run; 1.0 means uniformly loaded queues.
	Imbalance    Percentiles        `json:"imbalance"`
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// Throughput is pairs per second per phase: "map" is emitted pairs
	// over the map-combine phase, "combine" is combined pairs over it.
	Throughput map[string]float64 `json:"throughput_pairs_per_sec,omitempty"`
	Series     []SamplePoint      `json:"series"`
}

// buildReportLocked assembles the report from the current run's state;
// t.mu is held and the sampler is stopped.
func (t *Telemetry) buildReportLocked(phases map[string]float64) *Report {
	rep := &Report{
		Engine:         t.engine,
		DurationMicros: time.Since(t.start).Microseconds(),
		PhaseSeconds:   phases,
	}
	interval := t.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	rep.IntervalMicros = interval.Microseconds()

	var samples []Sample
	if t.series != nil {
		samples = t.series.samples
		rep.IntervalMicros = interval.Microseconds() * int64(t.series.stride)
	}
	rep.SampleCount = len(samples)

	for qi, q := range t.queues {
		cap := q.probe.Cap()
		occ := make([]float64, 0, len(samples))
		for _, s := range samples {
			if qi < len(s.Depths) && cap > 0 {
				occ = append(occ, float64(s.Depths[qi])/float64(cap))
			}
		}
		rep.Queues = append(rep.Queues, QueueReport{
			Name:      q.name,
			Capacity:  cap,
			Occupancy: percentiles(occ),
		})
	}

	for wi, w := range t.workers {
		busySamples, helpSamples, total := 0, 0, 0
		for _, s := range samples {
			if wi >= len(s.States) {
				continue
			}
			total++
			switch s.States[wi] {
			case StateWorking, StateDraining:
				busySamples++
			case StateHelping:
				busySamples++
				helpSamples++
			}
		}
		wr := WorkerReport{
			Engine:         w.engine,
			Role:           w.role,
			ID:             w.id,
			Emitted:        w.emitted.Load(),
			Combined:       w.combined.Load(),
			Tasks:          w.tasks.Load(),
			Batches:        w.batches.Load(),
			FailedPush:     w.failedPush.Load(),
			SleepMicros:    w.sleepMicros.Load(),
			LocalTakes:     w.stealTasks[0].Load(),
			SocketSteals:   w.stealTasks[1].Load(),
			RemoteSteals:   w.stealTasks[2].Load(),
			RemoteExecuted: w.remoteExecuted.Load(),
			TasksHelped:    w.helped.Load(),
			PairsFolded:    w.folded.Load(),
		}
		if total > 0 {
			wr.Busy = float64(busySamples) / float64(total)
			wr.Helping = float64(helpSamples) / float64(total)
		}
		rep.Workers = append(rep.Workers, wr)
		rep.Totals.Emitted += wr.Emitted
		rep.Totals.Combined += wr.Combined
		rep.Totals.Tasks += wr.Tasks
		rep.Totals.Batches += wr.Batches
		rep.Totals.FailedPush += wr.FailedPush
		rep.Totals.SleepMicros += wr.SleepMicros
		rep.Totals.LocalTakes += wr.LocalTakes
		rep.Totals.SocketSteals += wr.SocketSteals
		rep.Totals.RemoteSteals += wr.RemoteSteals
		rep.Totals.RemoteExecuted += wr.RemoteExecuted
		rep.Totals.TasksHelped += wr.TasksHelped
		if wr.Role == "combiner" {
			rep.Totals.FoldedByCombiners += wr.PairsFolded
		} else {
			rep.Totals.FoldedByMappers += wr.PairsFolded
		}
	}

	imb := make([]float64, 0, len(samples))
	for _, s := range samples {
		if len(s.Depths) > 0 {
			imb = append(imb, s.Imbalance)
		}
	}
	rep.Imbalance = percentiles(imb)

	if mc := phases["map-combine"]; mc > 0 {
		rep.Throughput = map[string]float64{
			"map":     float64(rep.Totals.Emitted) / mc,
			"combine": float64(rep.Totals.Combined) / mc,
		}
	}

	for _, s := range samples {
		pt := SamplePoint{TMicros: s.T.Microseconds(), Depths: s.Depths, Imbalance: s.Imbalance}
		if len(s.States) > 0 {
			pt.States = make([]uint8, len(s.States))
			for i, st := range s.States {
				pt.States[i] = uint8(st)
			}
		}
		rep.Series = append(rep.Series, pt)
	}
	return rep
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the report as human-readable text: counter totals, one
// line per queue with occupancy percentiles, and per-role utilization.
func (r *Report) Summary(w io.Writer) error {
	_, err := fmt.Fprintf(w, "telemetry [%s]: %d samples over %v (every %v)\n",
		r.Engine, r.SampleCount,
		time.Duration(r.DurationMicros)*time.Microsecond,
		time.Duration(r.IntervalMicros)*time.Microsecond)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pairs: %d emitted, %d combined; %d tasks, %d batches, %d failed pushes, %dus slept\n",
		r.Totals.Emitted, r.Totals.Combined, r.Totals.Tasks, r.Totals.Batches,
		r.Totals.FailedPush, r.Totals.SleepMicros)
	if stolen := r.Totals.SocketSteals + r.Totals.RemoteSteals; stolen > 0 || r.Totals.LocalTakes > 0 {
		fmt.Fprintf(w, "steals: %d local tasks, %d socket, %d remote (%d executed remotely); imbalance p50 %.2f p90 %.2f max %.2f\n",
			r.Totals.LocalTakes, r.Totals.SocketSteals, r.Totals.RemoteSteals,
			r.Totals.RemoteExecuted, r.Imbalance.P50, r.Imbalance.P90, r.Imbalance.Max)
	}
	if folded := r.Totals.FoldedByCombiners + r.Totals.FoldedByMappers; folded > 0 {
		fmt.Fprintf(w, "helped: %d tasks mapped by combiners (%d pairs folded in place), %d pairs folded by mappers on a full ring\n",
			r.Totals.TasksHelped, r.Totals.FoldedByCombiners, r.Totals.FoldedByMappers)
	}
	for _, name := range sortedKeys(r.Throughput) {
		fmt.Fprintf(w, "throughput %-8s %.3g pairs/s\n", name, r.Throughput[name])
	}
	for _, q := range r.Queues {
		fmt.Fprintf(w, "queue %-12s cap %5d  occupancy mean %5.1f%%  p50 %5.1f%%  p90 %5.1f%%  p99 %5.1f%%  max %5.1f%%\n",
			q.Name, q.Capacity, q.Occupancy.Mean*100, q.Occupancy.P50*100,
			q.Occupancy.P90*100, q.Occupancy.P99*100, q.Occupancy.Max*100)
	}
	type roleAgg struct {
		n    int
		busy float64
	}
	roles := map[string]*roleAgg{}
	for _, wr := range r.Workers {
		a := roles[wr.Role]
		if a == nil {
			a = &roleAgg{}
			roles[wr.Role] = a
		}
		a.n++
		a.busy += wr.Busy
	}
	for _, role := range sortedRoleKeys(roles) {
		a := roles[role]
		fmt.Fprintf(w, "workers %-10s x%-3d  mean busy %5.1f%%\n", role, a.n, a.busy/float64(a.n)*100)
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

func sortedRoleKeys[T any](m map[string]*T) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
