// Batchcompare: the §5.2 experiment in miniature. The same NAS-Grid
// style workload (vjobs of gang-scheduled VMs) runs twice on the same
// simulated cluster: once under a static FCFS resource manager that
// books a full processing unit per VM and never preempts, and once
// under Entropy's dynamic consolidation with cluster-wide context
// switches. The run prints both completion times and the utilization
// gap — the paper reports a 40% reduction.
package main

import (
	"fmt"
	"time"

	"cwcs/internal/experiments"
	"cwcs/internal/sched"
)

func main() {
	// The §5.2 scenario is a testbed.Options; the optimizer rides in it.
	opts := experiments.DefaultClusterOptions()
	opts.VJobs = 6
	opts.WorkScale = 0.5 // keep the demo around a second of real time
	opts.Optimizer.Timeout = time.Second

	fmt.Println("running the static FCFS baseline...")
	fopts := opts
	fopts.Optimizer.PinRunning = true // a static RMS never migrates
	fcfs := experiments.RunCluster(sched.StaticFCFS{}, fopts)

	fmt.Println("running Entropy's dynamic consolidation...")
	entropy := experiments.RunCluster(sched.Consolidation{}, opts)

	fmt.Println()
	fmt.Println("allocation under static FCFS:")
	fmt.Print(fcfs.Gantt.Render(64))
	fmt.Println()
	fmt.Println("allocation under Entropy:")
	fmt.Print(entropy.Gantt.Render(64))

	fmt.Println()
	fmt.Printf("completion: FCFS %.0f s (%.1f min) vs Entropy %.0f s (%.1f min) -> %.0f%% faster\n",
		fcfs.Completion, fcfs.Completion/60,
		entropy.Completion, entropy.Completion/60,
		100*(1-entropy.Completion/fcfs.Completion))
	fmt.Printf("Entropy performed %d context switches (mean %.0f s): %v\n",
		len(entropy.Records), entropy.MeanSwitchDuration(), entropy.ActionCounts)
	fmt.Printf("transfers: %d local, %d remote\n", entropy.LocalOps, entropy.RemoteOps)
}
