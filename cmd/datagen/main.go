// Command datagen generates one of the synthetic datasets and writes it in
// the text exchange format or the GRDB001 flat container (which repquery and
// repserve memory-map instead of parsing), for use with -in flags or
// external tools.
//
// Usage:
//
//	datagen -dataset dud -n 5000 -seed 7 -out dud.gdb
//	datagen -dataset dud -n 5000 -seed 7 -out dud.grdb          # format from extension
//	datagen -dataset dud -n 5000 -seed 7 -format grdb > dud.grdb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphrep"
	"graphrep/internal/atomicfile"
	"graphrep/internal/dataset"
	"graphrep/internal/graph"
)

func main() {
	var (
		name   = flag.String("dataset", "dud", "dataset preset: dud, dblp, amazon, cascades, bugs")
		n      = flag.Int("n", 1000, "number of graphs")
		seed   = flag.Int64("seed", 42, "generation seed")
		out    = flag.String("out", "", "output file (default stdout)")
		format = flag.String("format", "auto", "output format: text, grdb (flat container, memory-mappable), or auto (grdb when -out ends in .grdb, else text)")
		config = flag.String("config", "", "JSON file with a custom dataset.Config (overrides -dataset)")
	)
	flag.Parse()
	switch *format {
	case "auto":
		if strings.HasSuffix(*out, ".grdb") {
			*format = "grdb"
		} else {
			*format = "text"
		}
	case "text", "grdb":
	default:
		fatal(fmt.Errorf("unknown -format %q (want text, grdb, or auto)", *format))
	}

	db, err := generate(*config, *name, *n, *seed)
	if err != nil {
		fatal(err)
	}
	write := graphrep.WriteDatabase
	if *format == "grdb" {
		write = graphrep.SaveDatabase
	}
	if *out == "" {
		err = write(os.Stdout, db)
	} else {
		// Replace -out whole, so a failed write never leaves a truncated
		// corpus behind.
		err = atomicfile.Write(*out, func(w io.Writer) error { return write(w, db) })
	}
	if err != nil {
		fatal(err)
	}
	st := db.Stats()
	fmt.Fprintf(os.Stderr, "wrote %d graphs as %s (avg |V|=%.1f, avg |E|=%.1f)\n", st.Graphs, *format, st.AvgNodes, st.AvgEdges)
}

// generate builds the database from a custom JSON config when given,
// otherwise from the named preset. The JSON mirrors dataset.Config, e.g.
//
//	{"N":500,"Seed":7,"MinOrder":10,"MaxOrder":30,"VertexLabels":8,
//	 "EdgeLabels":2,"MeanFamily":15,"OutlierFrac":0.05,"Edits":4,
//	 "ExtraEdgeProb":0.02,"FeatureDim":4,"FeatureNoise":0.1}
func generate(configPath, name string, n int, seed int64) (*graph.Database, error) {
	if configPath == "" {
		return graphrep.GenerateDataset(name, n, seed)
	}
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return nil, err
	}
	var cfg dataset.Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("parse %s: %w", configPath, err)
	}
	if cfg.N == 0 {
		cfg.N = n
	}
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	return dataset.Generate(cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
