//go:build race

package analytic

// The race detector slows the single-goroutine property tests about
// sevenfold without anything for it to check there; under -race they
// run their -short case counts (the plain test run keeps the full ones).
func init() { raceEnabled = true }
