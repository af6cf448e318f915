//go:build race

package sim

// raceEnabled skips the object budget under -race, whose
// instrumentation allocates on its own account.
const raceEnabled = true
