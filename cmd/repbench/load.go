package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphrep"
	"graphrep/internal/atomicfile"
)

// The -bench-load mode: measure what it costs to come back up from a saved
// index, the same NBIDX004 file opened two ways — memory-mapped (the
// directory is parsed, the arrays are served in place) and read into memory
// (Options.DisableMmap: the whole file copied to the heap first). Mapped
// open time should be roughly flat in n and the read open's linear;
// retained heap and resident-set growth should track the index size for the
// read open and stay near zero for the mapped one, whose pages fault in
// only as queries touch them. The JSON report lands in BENCH_load.json; the
// committed copy at the repo root is the reference run.

// LoadBenchResult is one (size, open mode) cell of the benchmark.
type LoadBenchResult struct {
	N           int    `json:"n"`
	Mode        string `json:"mode"` // "mmap" or "read"
	IndexBytes  int64  `json:"index_bytes"`
	OpenNsPerOp int64  `json:"open_ns_per_op"`
	OpenIters   int    `json:"open_iters"`
	// HeapRetainedBytes is the post-GC heap growth attributable to one open
	// held alive; RSSDeltaKB the resident-set growth around it (0 where
	// /proc/self/status is unavailable).
	HeapRetainedBytes int64 `json:"heap_retained_bytes"`
	RSSDeltaKB        int64 `json:"rss_delta_kb"`
}

// LoadBenchReport is the full -bench-load output.
type LoadBenchReport struct {
	Dataset string            `json:"dataset"`
	Seed    int64             `json:"seed"`
	Shards  int               `json:"shards"`
	Workers int               `json:"workers"` // resolved GOMAXPROCS at run time
	Results []LoadBenchResult `json:"results"`
}

// benchLoad builds and saves an index per size, then times reopening the
// file through OpenWithIndexFile mapped and with DisableMmap, so the only
// variable is the open mode. Like -bench-kernel it doubles as a regression
// gate: the mapped open must be strictly faster than reading the file into
// memory at every size, or the process exits non-zero.
func benchLoad(w io.Writer, outPath string, sizes []int) error {
	const (
		dataset   = "dud"
		seed      = int64(1)
		shards    = 2
		openIters = 10
	)
	if os.Getenv("GRAPHREP_DISABLE_MMAP") != "" {
		return fmt.Errorf("GRAPHREP_DISABLE_MMAP is set, so both opens would read the file; unset it to compare them")
	}
	tmp, err := os.MkdirTemp("", "repbench-load")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	report := LoadBenchReport{
		Dataset: dataset, Seed: seed, Shards: shards,
		Workers: runtime.GOMAXPROCS(0),
	}
	slow := false
	for _, n := range sizes {
		db, err := graphrep.GenerateDataset(dataset, n, seed)
		if err != nil {
			return err
		}
		engine, err := graphrep.Open(db, graphrep.Options{Seed: seed, Shards: shards})
		if err != nil {
			return err
		}
		path := filepath.Join(tmp, fmt.Sprintf("index_%d.nbx", n))
		if err := atomicfile.Write(path, engine.SaveIndex); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}

		var openNs = map[string]int64{}
		for _, mode := range []string{"read", "mmap"} {
			opts := graphrep.Options{DisableMmap: mode == "read"}
			cost, err := measureOpen(openIters, func() (io.Closer, error) {
				return graphrep.OpenWithIndexFile(db, path, opts)
			})
			if err != nil {
				return err
			}
			openNs[mode] = cost.nsPerOp
			report.Results = append(report.Results, LoadBenchResult{
				N: n, Mode: mode,
				IndexBytes:        fi.Size(),
				OpenNsPerOp:       cost.nsPerOp,
				OpenIters:         openIters,
				HeapRetainedBytes: cost.heapRetained,
				RSSDeltaKB:        cost.rssDeltaKB,
			})
			fmt.Fprintf(w, "n=%-6d %s  %7d bytes  open %v/op  heap +%d B  rss %+d KB\n",
				n, mode, fi.Size(),
				time.Duration(cost.nsPerOp).Round(time.Microsecond),
				cost.heapRetained, cost.rssDeltaKB)
		}
		if openNs["mmap"] >= openNs["read"] {
			slow = true
			fmt.Fprintf(w, "REGRESSION: n=%d mapped open (%v) not faster than reading the file (%v)\n",
				n, time.Duration(openNs["mmap"]), time.Duration(openNs["read"]))
		}
	}

	if err := writeReport(w, outPath, report); err != nil {
		return err
	}
	if slow {
		return fmt.Errorf("mapped index open regressed against reading the file (see report)")
	}
	return nil
}
