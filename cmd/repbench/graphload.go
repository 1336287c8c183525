package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"graphrep"
)

// The -bench-graphload mode: measure what it costs to bring the CORPUS up
// (the graphs themselves, not the index — that is -bench-load's job), text
// exchange format against the GRDB001 flat container. Text parsing scans
// every line and copies every vertex, edge, and feature to the heap, so open
// time and retained heap are linear in n. The mapped container parses a
// fixed-size directory and serves graph content zero-copy from the mapping,
// so open time is flat in n and the heap retains only per-graph handles —
// corpus pages fault in as queries touch them. The JSON report lands in
// BENCH_graphload.json; the committed copy at the repo root is the
// reference run.

// GraphLoadBenchResult is one (size, format) cell of the benchmark.
type GraphLoadBenchResult struct {
	N           int    `json:"n"`
	Format      string `json:"format"` // "text" or "grdb"
	FileBytes   int64  `json:"file_bytes"`
	OpenNsPerOp int64  `json:"open_ns_per_op"`
	OpenIters   int    `json:"open_iters"`
	// HeapRetainedBytes is the post-GC heap growth attributable to one open
	// held alive; RSSDeltaKB the resident-set growth around it (0 where
	// /proc/self/status is unavailable).
	HeapRetainedBytes int64 `json:"heap_retained_bytes"`
	RSSDeltaKB        int64 `json:"rss_delta_kb"`
}

// GraphLoadBenchReport is the full -bench-graphload output.
type GraphLoadBenchReport struct {
	Dataset string                 `json:"dataset"`
	Seed    int64                  `json:"seed"`
	Results []GraphLoadBenchResult `json:"results"`
}

// benchGraphLoad generates a corpus per size, writes it in both formats, and
// times reopening each through LoadDatabaseFile (which sniffs the magic and
// maps .grdb, so the only variable is the format). Like -bench-load it
// doubles as a regression gate: the mapped open must be strictly faster than
// the text parse at every size, or the process exits non-zero.
func benchGraphLoad(w io.Writer, outPath string, sizes []int) error {
	const (
		dataset   = "dud"
		seed      = int64(1)
		openIters = 10
	)
	tmp, err := os.MkdirTemp("", "repbench-graphload")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	report := GraphLoadBenchReport{Dataset: dataset, Seed: seed}
	slow := false
	for _, n := range sizes {
		db, err := graphrep.GenerateDataset(dataset, n, seed)
		if err != nil {
			return err
		}
		paths := map[string]string{
			"text": filepath.Join(tmp, fmt.Sprintf("corpus_%d.gdb", n)),
			"grdb": filepath.Join(tmp, fmt.Sprintf("corpus_%d.grdb", n)),
		}
		for format, path := range paths {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if format == "grdb" {
				err = graphrep.SaveDatabase(f, db)
			} else {
				err = graphrep.WriteDatabase(f, db)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}

		var openNs = map[string]int64{}
		for _, format := range []string{"text", "grdb"} {
			path := paths[format]
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			// The mapped open is O(directory), not O(corpus) — content
			// validation defers to first query use and is not charged here,
			// matching a server that starts accepting connections before its
			// first request.
			cost, err := measureOpen(openIters, func() (io.Closer, error) {
				return graphrep.LoadDatabaseFile(path)
			})
			if err != nil {
				return err
			}
			openNs[format] = cost.nsPerOp
			report.Results = append(report.Results, GraphLoadBenchResult{
				N: n, Format: format,
				FileBytes:         fi.Size(),
				OpenNsPerOp:       cost.nsPerOp,
				OpenIters:         openIters,
				HeapRetainedBytes: cost.heapRetained,
				RSSDeltaKB:        cost.rssDeltaKB,
			})
			fmt.Fprintf(w, "n=%-6d %-4s %8d bytes  open %v/op  heap +%d B  rss %+d KB\n",
				n, format, fi.Size(),
				time.Duration(cost.nsPerOp).Round(time.Microsecond),
				cost.heapRetained, cost.rssDeltaKB)
		}
		if openNs["grdb"] >= openNs["text"] {
			slow = true
			fmt.Fprintf(w, "REGRESSION: n=%d mapped grdb open (%v) not faster than text parse (%v)\n",
				n, time.Duration(openNs["grdb"]), time.Duration(openNs["text"]))
		}
	}

	if err := writeReport(w, outPath, report); err != nil {
		return err
	}
	if slow {
		return fmt.Errorf("mapped grdb open regressed against text parse (see report)")
	}
	return nil
}
