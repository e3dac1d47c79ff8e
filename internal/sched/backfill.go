package sched

import (
	"fmt"
	"sort"
	"strings"
)

// BatchJob is a rigid job as a traditional RMS sees it (§2.1): a
// processor count, a user-provided walltime estimate, and the actual
// runtime (often shorter — user estimates are inaccurate).
type BatchJob struct {
	// ID names the job ("1" to "4" in Figure 1).
	ID string
	// Procs is the number of processors the job reserves.
	Procs int
	// Runtime is the real execution time, in abstract time units.
	Runtime int
	// Estimate is the user's walltime request; the scheduler reasons
	// with it. Must be >= 1.
	Estimate int
}

// Segment is one contiguous execution interval of a job.
type Segment struct {
	Job        string
	Start, End int
	Procs      int
}

// Schedule is the outcome of a batch-scheduling policy.
type Schedule struct {
	Segments []Segment
	Makespan int
	// Wasted is the processor-time units left idle before the
	// makespan (the gray areas of Figure 1).
	Wasted int
	Procs  int
}

// batchState simulates unit time steps.
type batchState struct {
	procs   int
	t       int
	pending []*batchRun
	running []*batchRun
	done    []*batchRun
}

type batchRun struct {
	job       BatchJob
	remaining int
	start     int // start of the current segment, -1 if not running
	segments  []Segment
	started   bool
}

func newBatchState(jobs []BatchJob, procs int) *batchState {
	st := &batchState{procs: procs}
	for _, j := range jobs {
		if j.Estimate <= 0 || j.Runtime <= 0 || j.Procs <= 0 {
			panic(fmt.Sprintf("sched: invalid batch job %+v", j))
		}
		if j.Procs > procs {
			panic(fmt.Sprintf("sched: job %s requests %d > %d processors", j.ID, j.Procs, procs))
		}
		st.pending = append(st.pending, &batchRun{job: j, remaining: j.Runtime, start: -1})
	}
	return st
}

func (st *batchState) freeProcs() int {
	used := 0
	for _, r := range st.running {
		used += r.job.Procs
	}
	return st.procs - used
}

func (st *batchState) begin(r *batchRun) {
	r.start = st.t
	r.started = true
	st.running = append(st.running, r)
}

func (st *batchState) pause(r *batchRun) {
	r.segments = append(r.segments, Segment{Job: r.job.ID, Start: r.start, End: st.t, Procs: r.job.Procs})
	r.start = -1
	for i, x := range st.running {
		if x == r {
			st.running = append(st.running[:i], st.running[i+1:]...)
			break
		}
	}
}

// step advances one time unit and retires finished jobs.
func (st *batchState) step() {
	st.t++
	var still []*batchRun
	for _, r := range st.running {
		r.remaining--
		if r.remaining == 0 {
			r.segments = append(r.segments, Segment{Job: r.job.ID, Start: r.start, End: st.t, Procs: r.job.Procs})
			st.done = append(st.done, r)
		} else {
			still = append(still, r)
		}
	}
	st.running = still
}

func (st *batchState) schedule() Schedule {
	s := Schedule{Makespan: st.t, Procs: st.procs}
	for _, r := range st.done {
		s.Segments = append(s.Segments, r.segments...)
	}
	sort.Slice(s.Segments, func(i, j int) bool {
		if s.Segments[i].Start != s.Segments[j].Start {
			return s.Segments[i].Start < s.Segments[j].Start
		}
		return s.Segments[i].Job < s.Segments[j].Job
	})
	busy := 0
	for _, seg := range s.Segments {
		busy += (seg.End - seg.Start) * seg.Procs
	}
	s.Wasted = st.t*st.procs - busy
	return s
}

// FCFS runs the jobs strictly in order: the queue head blocks everyone
// behind it until it can start (Figure 1 before backfilling).
func FCFS(jobs []BatchJob, procs int) Schedule {
	st := newBatchState(jobs, procs)
	for len(st.pending) > 0 || len(st.running) > 0 {
		for len(st.pending) > 0 && st.pending[0].job.Procs <= st.freeProcs() {
			st.begin(st.pending[0])
			st.pending = st.pending[1:]
		}
		st.step()
	}
	return st.schedule()
}

// EASY adds EASY backfilling (Figure 1b): when the head is blocked, a
// later job may start if — according to the estimates — it cannot
// delay the head's reservation.
func EASY(jobs []BatchJob, procs int) Schedule {
	st := newBatchState(jobs, procs)
	for len(st.pending) > 0 || len(st.running) > 0 {
		for len(st.pending) > 0 && st.pending[0].job.Procs <= st.freeProcs() {
			st.begin(st.pending[0])
			st.pending = st.pending[1:]
		}
		if len(st.pending) > 0 {
			st.backfill()
		}
		st.step()
	}
	return st.schedule()
}

// backfill implements the EASY rule with the head's shadow time.
func (st *batchState) backfill() {
	head := st.pending[0]
	// Project when the head can start, using ESTIMATED completions.
	type release struct{ at, procs int }
	var rel []release
	for _, r := range st.running {
		est := r.start + r.job.Estimate
		if done := r.job.Runtime - r.remaining; done > r.job.Estimate {
			est = st.t + 1 // overrun: assume imminent end
		}
		rel = append(rel, release{at: est, procs: r.job.Procs})
	}
	sort.Slice(rel, func(i, j int) bool { return rel[i].at < rel[j].at })
	free := st.freeProcs()
	shadow := st.t
	for _, r := range rel {
		if free >= head.job.Procs {
			break
		}
		free += r.procs
		shadow = r.at
	}
	extra := free - head.job.Procs // processors spare at shadow time
	for _, cand := range st.pending[1:] {
		if cand.job.Procs > st.freeProcs() {
			continue
		}
		fitsBefore := st.t+cand.job.Estimate <= shadow
		fitsBeside := cand.job.Procs <= extra
		if fitsBefore || fitsBeside {
			st.begin(cand)
			if fitsBeside && !fitsBefore {
				extra -= cand.job.Procs
			}
			// remove from pending
			for i, p := range st.pending {
				if p == cand {
					st.pending = append(st.pending[:i], st.pending[i+1:]...)
					break
				}
			}
			return // one backfill per step keeps the policy simple
		}
	}
}

// EASYPreempt is the Figure 1c policy: EASY backfilling plus
// preemption. Each step, processors go to jobs in queue order; any
// leftover processors let later jobs run partially, and such jobs are
// suspended again the moment an older job needs the room. Progress is
// never lost (the paper realizes this with vjob suspend/resume).
func EASYPreempt(jobs []BatchJob, procs int) Schedule {
	st := newBatchState(jobs, procs)
	var all []*batchRun
	all = append(all, st.pending...)
	st.pending = nil
	for {
		remaining := 0
		for _, r := range all {
			if r.remaining > 0 {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		// Allocate processors in FCFS priority order.
		free := st.procs
		for _, r := range all {
			if r.remaining == 0 {
				continue
			}
			if r.job.Procs <= free {
				free -= r.job.Procs
				if r.start < 0 {
					st.begin(r)
				}
			} else if r.start >= 0 {
				st.pause(r)
			}
		}
		st.step()
	}
	return st.schedule()
}

// Gantt renders the schedule as ASCII art, one row per job, matching
// the layout of Figure 1 and Figure 12.
func (s Schedule) Gantt() string {
	jobs := map[string][]Segment{}
	var order []string
	for _, seg := range s.Segments {
		if _, ok := jobs[seg.Job]; !ok {
			order = append(order, seg.Job)
		}
		jobs[seg.Job] = append(jobs[seg.Job], seg)
	}
	sort.Strings(order)
	var b strings.Builder
	fmt.Fprintf(&b, "time    %s\n", ruler(s.Makespan))
	for _, id := range order {
		row := make([]byte, s.Makespan)
		for i := range row {
			row[i] = '.'
		}
		for _, seg := range jobs[id] {
			for t := seg.Start; t < seg.End && t < len(row); t++ {
				row[t] = '#'
			}
		}
		fmt.Fprintf(&b, "job %-3s %s\n", id, row)
	}
	fmt.Fprintf(&b, "makespan=%d wasted=%d proc-units\n", s.Makespan, s.Wasted)
	return b.String()
}

func ruler(n int) string {
	b := make([]byte, n)
	for i := range b {
		if (i+1)%10 == 0 {
			b[i] = '|'
		} else {
			b[i] = ' '
		}
	}
	return string(b)
}
