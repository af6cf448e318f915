//go:build race

package exec

// raceEnabled skips the allocation budget under -race, whose
// instrumentation allocates on its own account.
const raceEnabled = true
