package lockorder_test

import (
	"testing"

	"ldplfs/internal/analysis/analysistest"
	"ldplfs/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "a", "stale")
}
