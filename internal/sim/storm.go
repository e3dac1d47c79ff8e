package sim

import (
	"fmt"
	"math/rand"

	"cwcs/internal/plan"
)

// FailureStorm is a time-varying action-failure schedule: the flaky
// driver fails completing actions with probability Base in calm
// periods and Storm inside the [From, Until) window of virtual time.
// The churn scenario's flat 2% rate is the degenerate storm (no
// window); the chaos study's action-storm cell drives a 30% window
// through this to push the loop's repair path well past the rate it
// was tuned at.
type FailureStorm struct {
	// Base and Storm are per-action failure probabilities.
	Base, Storm float64
	// From and Until delimit the storm window; a zero-length window
	// (Until <= From) keeps Base in force everywhere.
	From, Until float64
}

// Rate is the failure probability in force at virtual time now.
func (s FailureStorm) Rate(now float64) float64 {
	if s.Until > s.From && now >= s.From && now < s.Until {
		return s.Storm
	}
	return s.Base
}

// InstallFailureStorm points the cluster's FailAction at the storm
// schedule, drawing one variate from rng per completing action — the
// same stream shape as a flat-rate hook, so seeded scenarios stay
// comparable when a storm window is added.
func (c *Cluster) InstallFailureStorm(rng *rand.Rand, s FailureStorm) {
	c.FailAction = func(a plan.Action) error {
		if rng.Float64() < s.Rate(c.now) {
			return fmt.Errorf("sim: injected driver failure on %s", a)
		}
		return nil
	}
}
