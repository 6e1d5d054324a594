package serve

// The load tests live in the external serve_test package because they
// drive the engine with internal/loadgen, which imports serve. These
// give them the in-package fixtures.
var (
	NewTestServer = newTestServer
	TestNames     = testNames
)
