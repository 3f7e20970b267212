package accel

// The device drivers, for the known-answer test in package accel_test: it
// imports the root cohort package, which imports this one.
var (
	RunDevice = runDevice
	RunStream = runStream
)
