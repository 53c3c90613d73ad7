package main

import "testing"

// TestLintDirOwnPackage runs the real parser over this package's own
// directory: doclint must pass its own check.
func TestLintDirOwnPackage(t *testing.T) {
	if findings := lintDir("."); findings != 0 {
		t.Fatalf("doclint fails on its own package: %d findings", findings)
	}
}
