// Package support is a test harness; its package doc opts it out of
// the testonly analyzer.
//
//repolint:test-support
package support

// Fixture is called only by tests.
func Fixture() int { return 1 }
