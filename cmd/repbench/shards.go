package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"graphrep"
)

// The -bench-shards mode: measure index build and query latency at several
// shard counts and write the results as JSON (BENCH_shards.json in CI). The
// answers are byte-identical at every shard count — that invariant is
// enforced by the test suite — so this mode reports only wall time.

// ShardBenchResult is one (shard count) row of the benchmark.
type ShardBenchResult struct {
	Shards       int   `json:"shards"`
	BuildNsPerOp int64 `json:"build_ns_per_op"`
	QueryNsPerOp int64 `json:"query_ns_per_op"`
	BuildIters   int   `json:"build_iters"`
	QueryIters   int   `json:"query_iters"`
}

// ShardBenchReport is the full -bench-shards output.
type ShardBenchReport struct {
	Dataset string             `json:"dataset"`
	N       int                `json:"n"`
	Seed    int64              `json:"seed"`
	K       int                `json:"k"`
	Theta   float64            `json:"theta"`
	Workers int                `json:"workers"` // resolved GOMAXPROCS at run time
	Results []ShardBenchResult `json:"results"`
}

// benchShards builds the benchmark database once, then for each shard count
// times the index build and the steady-state query at the fixed θ = 23 (a
// constant, not a pick from the index's θ grid, so the query column compares
// across builds that index different grids), writing the JSON report
// to outPath and a human-readable summary to w. only > 0 restricts the run
// to that single shard count (the CI smoke mode); 0 runs 1, 2, and 4.
func benchShards(w io.Writer, outPath string, n, only int) error {
	const (
		dataset    = "dud"
		seed       = int64(1)
		k          = 5
		theta      = 23.0
		buildIters = 3
		queryIters = 20
	)
	counts := []int{1, 2, 4}
	if only > 0 {
		counts = []int{only}
	}
	db, err := graphrep.GenerateDataset(dataset, n, seed)
	if err != nil {
		return err
	}
	report := ShardBenchReport{
		Dataset: dataset, N: n, Seed: seed, K: k, Theta: theta,
		Workers: runtime.GOMAXPROCS(0),
	}
	rel := graphrep.FirstQuartileRelevance(db, nil)
	for _, shards := range counts {
		opts := graphrep.Options{Seed: seed, Shards: shards}
		// One untimed build warms the process.
		engine, err := graphrep.Open(db, opts)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < buildIters; i++ {
			if engine, err = graphrep.Open(db, opts); err != nil {
				return err
			}
		}
		buildNs := time.Since(start).Nanoseconds() / buildIters

		sess, err := engine.NewSession(rel)
		if err != nil {
			return err
		}
		if _, err := sess.TopK(report.Theta, k); err != nil { // warm-up
			return err
		}
		start = time.Now()
		for i := 0; i < queryIters; i++ {
			if _, err := sess.TopK(report.Theta, k); err != nil {
				return err
			}
		}
		queryNs := time.Since(start).Nanoseconds() / queryIters

		report.Results = append(report.Results, ShardBenchResult{
			Shards:       shards,
			BuildNsPerOp: buildNs,
			QueryNsPerOp: queryNs,
			BuildIters:   buildIters,
			QueryIters:   queryIters,
		})
		fmt.Fprintf(w, "shards=%d  build %v/op  query %v/op\n",
			shards, time.Duration(buildNs).Round(time.Microsecond), time.Duration(queryNs).Round(time.Microsecond))
	}
	if err := writeReport(w, outPath, report); err != nil {
		return err
	}
	return nil
}
