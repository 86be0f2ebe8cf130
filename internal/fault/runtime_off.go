//go:build !faultinject

package fault

// Enabled is false in the default build; see the faultinject build
// tag (runtime_on.go) for the real documentation. These stubs keep
// injection points free in release binaries: every call compiles to a
// trivially inlinable empty function.
const Enabled = false

// Set is a no-op in the default build.
//
//repolint:allow testonly -- default-build stub of the chaos-test API; fault's inertness test and cluster's untagged fault tests call it
func Set(Plan) {}

// Reset is a no-op in the default build.
//
//repolint:allow testonly -- default-build stub of the chaos-test API; fault's inertness test and cluster's untagged fault tests call it
func Reset() {}

// Hits always reports zero in the default build.
//
//repolint:allow testonly -- default-build stub of the chaos-test API; fault's inertness test checks it stays zero
func Hits(string) int { return 0 }

// Fired always reports zero in the default build.
//
//repolint:allow testonly -- default-build stub of the chaos-test API; fault's inertness test and cluster's untagged fault tests call it
func Fired(string) int { return 0 }

// Inject is a no-op in the default build.
func Inject(string) {}

// InjectErr never fails in the default build.
func InjectErr(string) error { return nil }

// InjectWrite passes the buffer through untouched in the default
// build.
func InjectWrite(_ string, b []byte) ([]byte, bool, error) { return b, false, nil }

// InitFromEnv is a no-op in the default build.
func InitFromEnv() {}
