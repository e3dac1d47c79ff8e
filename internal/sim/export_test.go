package sim

// RunChecks runs one advance's audit and its subscribers, and Rates one
// step's rate computation, for the external tests.
func (c *Cluster) RunChecks() { c.runChecks() }
func (c *Cluster) Rates()     { c.rates() }
