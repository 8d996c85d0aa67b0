package core

import (
	"os"
	"testing"

	"safeweb/internal/faultnet"
)

// TestMain fails the binary when a goroutine of the project outlives its
// tests: a teardown that does not end.
func TestMain(m *testing.M) { os.Exit(faultnet.Quiescent(m.Run)) }
