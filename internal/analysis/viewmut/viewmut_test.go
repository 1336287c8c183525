package viewmut_test

import (
	"testing"

	"graphrep/internal/analysis/analysistest"
	"graphrep/internal/analysis/viewmut"
)

func TestViewmut(t *testing.T) {
	analysistest.Run(t, "testdata", viewmut.Analyzer, "mmapfile", "vantage", "ged", "shard")
}
