package vm

// Test hooks for the external test package (vm_test), whose fuzzers need
// the statistics collector, which imports this package.
var (
	DecodeFuzzProg  = decodeFuzzProg
	FuzzSeedRegs    = fuzzSeedRegs
	CheckEngineDiff = checkEngineDiff
	TestLayout      = testLayout
)

const (
	FuzzTextBase = fuzzTextBase
	FuzzMaxSteps = fuzzMaxSteps
)
