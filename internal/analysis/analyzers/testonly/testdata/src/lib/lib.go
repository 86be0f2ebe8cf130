// Package lib exercises the testonly analyzer: an unreached function,
// its helper and an unreached method are reported, and so are methods
// that only share a name with an interface method; a method of a type
// implementing an interface, a literal stored in a field, a function
// used as a value, an init function, a package-level initializer and
// an allowed function with its helper are not.
package lib

import (
	"encoding/json"
	"fmt"
)

// Used is the entry point main calls.
func Used() int {
	f := double // a function used as a value, called later
	b, _ := json.Marshal(U{})
	return f(1) + len(table) + len(fmt.Sprint(T{})) + len(b)
}

func double(x int) int { return 2 * x }

// Unused is called by no program.
func Unused() int { return unusedHelper() } // want `lib\.Unused is reached by no program`

// unusedHelper is called only by Unused, so it goes with it.
func unusedHelper() int { return 1 } // want `lib\.unusedHelper is reached by no program`

// T holds a hook that runs whenever its holder calls it.
type T struct{ hook func() int }

// NewT stores a literal in a field; the literal's callees are reached
// with NewT.
func NewT() T { return T{hook: func() int { return fromLiteral() }} }

func fromLiteral() int { return 2 }

// String is named by fmt.Stringer, an interface of an imported
// package: fmt may call it.
func (T) String() string { return "T" }

// closer names Close as an interface method of this package.
type closer interface{ Close() error }

var _ closer = T{}

// Close may run through closer.
func (T) Close() error { return nil }

// Dead is a method nothing calls.
func (T) Dead() {} // want `lib\.\(T\)\.Dead is reached by no program`

// U has a Close method, but not closer's, so U does not implement it.
type U struct{}

// Close shares only its name with closer's method.
func (U) Close() {} // want `lib\.\(U\)\.Close is reached by no program`

// IsZero satisfies only encoding/json's unexported isZeroer, which is
// no interface the program can name.
func (U) IsZero() bool { return true } // want `lib\.\(U\)\.IsZero is reached by no program`

var table = map[string]func() int{"x": fromTable}

func fromTable() int { return 4 }

func init() { initHelper() }

func initHelper() {}

// Oracle is kept for the tests, which compare against it.
//
//repolint:allow testonly -- the tests' oracle; no program needs it
func Oracle() int { return oracleHelper() }

// oracleHelper is reached through the allowed Oracle.
func oracleHelper() int { return 3 }
