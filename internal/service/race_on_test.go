//go:build race

package service_test

// raceEnabled skips the allocation budgets under -race, whose
// instrumentation allocates on its own account.
const raceEnabled = true
