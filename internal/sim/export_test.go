package sim

// FastConfig exposes the reduced test configuration to the external
// sim_test package, whose tests drive the pipeline through trace.
var FastConfig = testConfig
