package trace

// Observation and SameObservation expose the unexported comparison pair to
// the external tests, which record real runs through the engine: an import
// the package's own tests cannot make without a cycle.
func Observation(a Action) string { return a.observation() }

func SameObservation(a, b *Action) bool { return sameObservation(a, b) }
