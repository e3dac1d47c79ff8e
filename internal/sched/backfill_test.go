package sched

import (
	"strings"
	"testing"
)

// figure1Jobs is the 4-job workload of Figure 1 on a 4-processor
// cluster: job 1 narrow, job 2 wide (blocks the queue), jobs 3-4
// narrow fillers. Numbers are chosen so each policy exhibits exactly
// the figure's behaviour: EASY backfills job 3 beside job 1;
// preemption additionally starts job 4 immediately and suspends it
// while the wide job 2 runs.
func figure1Jobs() ([]BatchJob, int) {
	return []BatchJob{
		{ID: "1", Procs: 2, Runtime: 2, Estimate: 2},
		{ID: "2", Procs: 4, Runtime: 3, Estimate: 3},
		{ID: "3", Procs: 1, Runtime: 2, Estimate: 2},
		{ID: "4", Procs: 1, Runtime: 4, Estimate: 4},
	}, 4
}

func firstStart(s Schedule, id string) int {
	first := 1 << 30
	for _, seg := range s.Segments {
		if seg.Job == id && seg.Start < first {
			first = seg.Start
		}
	}
	return first
}

func TestFCFSBlocksBehindWideJob(t *testing.T) {
	jobs, procs := figure1Jobs()
	s := FCFS(jobs, procs)
	// Job 2 (4 procs) waits for job 1 (ends t=2), runs 2-5; jobs 3-4
	// start at 5; job 4 runs 4 units -> makespan 9.
	if s.Makespan != 9 {
		t.Fatalf("FCFS makespan = %d, want 9\n%s", s.Makespan, s.Gantt())
	}
	if s.Wasted == 0 {
		t.Fatal("FCFS should waste processor time (gray areas)")
	}
	if got := firstStart(s, "3"); got != 5 {
		t.Fatalf("job 3 starts at %d under FCFS, want 5", got)
	}
}

func TestEASYBackfillImproves(t *testing.T) {
	jobs, procs := figure1Jobs()
	fcfs := FCFS(jobs, procs)
	easy := EASY(jobs, procs)
	if easy.Makespan > fcfs.Makespan {
		t.Fatalf("EASY (%d) worse than FCFS (%d)\n%s", easy.Makespan, fcfs.Makespan, easy.Gantt())
	}
	// Job 3 (1 proc, 2 units) fits beside job 1 before job 2's shadow
	// at t=2: it is backfilled to t=0 (Figure 1b).
	if got := firstStart(easy, "3"); got != 0 {
		t.Fatalf("job 3 backfilled at %d, want 0\n%s", got, easy.Gantt())
	}
	// Backfilling must not delay the reserved head: job 2 still starts
	// at t=2.
	if got := firstStart(easy, "2"); got != 2 {
		t.Fatalf("job 2 delayed to %d by backfilling\n%s", got, easy.Gantt())
	}
}

func TestEASYPreemptImprovesFurther(t *testing.T) {
	jobs, procs := figure1Jobs()
	easy := EASY(jobs, procs)
	pre := EASYPreempt(jobs, procs)
	// Preemption runs job 4 in the t=0..2 hole and finishes the whole
	// workload sooner: makespan 7 vs 9 (Figure 1c).
	if pre.Makespan >= easy.Makespan {
		t.Fatalf("preemption (%d) should beat EASY (%d)\n%s", pre.Makespan, easy.Makespan, pre.Gantt())
	}
	if pre.Wasted >= easy.Wasted {
		t.Fatalf("preemption should waste less (%d vs %d)", pre.Wasted, easy.Wasted)
	}
	// The 4th job starts sooner under preemption without impacting the
	// head job 2.
	if firstStart(pre, "4") >= firstStart(easy, "4") {
		t.Fatalf("job 4 starts at %d under preemption vs %d under EASY",
			firstStart(pre, "4"), firstStart(easy, "4"))
	}
	if got := firstStart(pre, "2"); got != 2 {
		t.Fatalf("head job 2 delayed to %d by preemption\n%s", got, pre.Gantt())
	}
	// Job 4 must have been suspended and resumed: at least 2 segments.
	segs := 0
	for _, seg := range pre.Segments {
		if seg.Job == "4" {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("job 4 not preempted (%d segment)\n%s", segs, pre.Gantt())
	}
}

func TestPreemptionRunsPartially(t *testing.T) {
	// One wide job arrives behind a narrow one; with preemption the
	// narrow one runs in pieces around it.
	jobs := []BatchJob{
		{ID: "head", Procs: 1, Runtime: 2, Estimate: 2},
		{ID: "wide", Procs: 2, Runtime: 2, Estimate: 2},
		{ID: "tail", Procs: 1, Runtime: 4, Estimate: 4},
	}
	s := EASYPreempt(jobs, 2)
	// All work completes.
	total := map[string]int{}
	for _, seg := range s.Segments {
		total[seg.Job] += seg.End - seg.Start
	}
	for _, j := range jobs {
		if total[j.ID] != j.Runtime {
			t.Fatalf("job %s ran %d units, want %d\n%s", j.ID, total[j.ID], j.Runtime, s.Gantt())
		}
	}
	// tail must have been split (ran at t=0..? then preempted by wide).
	segs := 0
	for _, seg := range s.Segments {
		if seg.Job == "tail" {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("tail not preempted (%d segment)\n%s", segs, s.Gantt())
	}
}

func TestEstimatesDriveBackfillNotCompletion(t *testing.T) {
	// A job that finishes earlier than estimated frees processors
	// early; completions use Runtime, reservations use Estimate.
	jobs := []BatchJob{
		{ID: "over", Procs: 2, Runtime: 2, Estimate: 10},
		{ID: "next", Procs: 2, Runtime: 2, Estimate: 2},
	}
	s := FCFS(jobs, 2)
	if s.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4 (early completion honoured)", s.Makespan)
	}
}

func TestGanttRendering(t *testing.T) {
	jobs, procs := figure1Jobs()
	g := FCFS(jobs, procs).Gantt()
	for _, want := range []string{"job 1", "job 4", "makespan=9"} {
		if !strings.Contains(g, want) {
			t.Fatalf("gantt missing %q:\n%s", want, g)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid job accepted")
		}
	}()
	FCFS([]BatchJob{{ID: "bad", Procs: 9, Runtime: 1, Estimate: 1}}, 4)
}

// Property-ish: across the three policies, every job receives exactly
// its runtime and no step exceeds the processor count.
func TestPoliciesConserveWorkAndCapacity(t *testing.T) {
	jobs, procs := figure1Jobs()
	for name, s := range map[string]Schedule{
		"fcfs": FCFS(jobs, procs), "easy": EASY(jobs, procs), "pre": EASYPreempt(jobs, procs),
	} {
		total := map[string]int{}
		for _, seg := range s.Segments {
			total[seg.Job] += seg.End - seg.Start
		}
		for _, j := range jobs {
			if total[j.ID] != j.Runtime {
				t.Fatalf("%s: job %s ran %d, want %d", name, j.ID, total[j.ID], j.Runtime)
			}
		}
		for tick := 0; tick < s.Makespan; tick++ {
			used := 0
			for _, seg := range s.Segments {
				if seg.Start <= tick && tick < seg.End {
					used += seg.Procs
				}
			}
			if used > procs {
				t.Fatalf("%s: %d procs used at t=%d (capacity %d)", name, used, tick, procs)
			}
		}
	}
}
