//go:build race

package workload

// raceEnabled skips the allocation budget under -race, whose
// instrumentation allocates on its own account.
const raceEnabled = true
