package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"graphrep/internal/atomicfile"
)

// writeReport replaces path with report as indented JSON. The replacement is
// atomic, so a run that fails leaves the previous report as it was.
func writeReport(w io.Writer, path string, report any) error {
	err := atomicfile.Write(path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// openCost is what one way of opening a file costs: wall time per open, and
// the memory one open keeps while held.
type openCost struct {
	nsPerOp int64
	// heapRetained is the post-GC heap growth attributable to one open held
	// alive; rssDeltaKB the resident-set growth around it (0 where
	// /proc/self/status is unavailable).
	heapRetained int64
	rssDeltaKB   int64
}

// measureOpen times iters open-and-close cycles, so mappings don't pile up,
// then holds one open alive across forced GCs, so only memory the opened
// value actually retains is charged to it.
func measureOpen(iters int, open func() (io.Closer, error)) (openCost, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		c, err := open()
		if err != nil {
			return openCost{}, err
		}
		if err := c.Close(); err != nil {
			return openCost{}, err
		}
	}
	perOp := time.Since(start).Nanoseconds() / int64(iters)

	debug.FreeOSMemory()
	heapBefore, rssBefore := memoryFootprint()
	held, err := open()
	if err != nil {
		return openCost{}, err
	}
	debug.FreeOSMemory()
	heapAfter, rssAfter := memoryFootprint()
	if err := held.Close(); err != nil {
		return openCost{}, err
	}
	return openCost{nsPerOp: perOp, heapRetained: heapAfter - heapBefore, rssDeltaKB: rssAfter - rssBefore}, nil
}

// memoryFootprint samples the post-GC heap in use and, on linux, the
// process resident set from /proc/self/status (0 elsewhere).
func memoryFootprint() (heapBytes, rssKB int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBytes = int64(ms.HeapInuse)
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return heapBytes, 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					rssKB = kb
				}
			}
			break
		}
	}
	return heapBytes, rssKB
}
