//go:build race

package tensor

// The race detector allocates for each goroutine started, so a test that
// counts allocations over code that starts them cannot hold it to a count.
func init() { raceOn = true }
