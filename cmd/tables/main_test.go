package main

import (
	"slices"
	"testing"
)

// TestParseProcs requires -procs to accept only comma-separated counts
// within 1..core.MaxProcs.
func TestParseProcs(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []int // nil when the list is rejected
	}{
		{"2,4,6", []int{2, 4, 6}},
		{" 1, 64", []int{1, 64}},
		{"0", nil},
		{"-1", nil},
		{"65", nil},
		{"2,x", nil},
		{"", nil},
	} {
		got, err := parseProcs(tc.list)
		if (err == nil) != (tc.want != nil) || !slices.Equal(got, tc.want) {
			t.Errorf("parseProcs(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}
