package main

import "testing"

// TestMainRuns runs the example end to end, so a broken example fails
// the test suite. main reports errors through log.Fatal, which exits the
// test binary non-zero.
func TestMainRuns(t *testing.T) { main() }
