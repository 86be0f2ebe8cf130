package testonly_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/analyzers/testonly"
)

func TestTestOnly(t *testing.T) {
	analysistest.RunProgram(t, testonly.Analyzer,
		"testdata/src/lib", "testdata/src/support", "testdata/src/cmd")
}
