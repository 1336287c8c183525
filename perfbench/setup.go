package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"graphrep"
	"graphrep/internal/server"
)

// corpus is the generated database of one workload plus the graphs held
// back for /insert.
type corpus struct {
	db   *graphrep.Database
	held []*graphrep.Graph
}

// generate builds the seeded dud corpus: n graphs to index and held more
// from the same generator to insert later.
func generate(n, held int, seed int64) (corpus, error) {
	all, err := graphrep.GenerateDataset("dud", n+held, seed)
	if err != nil {
		return corpus{}, fmt.Errorf("generate: %w", err)
	}
	if held == 0 {
		return corpus{db: all}, nil
	}
	gs := all.Graphs()
	db, err := graphrep.NewDatabase(gs[:n])
	if err != nil {
		return corpus{}, fmt.Errorf("generate: %w", err)
	}
	return corpus{db: db, held: gs[n:]}, nil
}

// buildInfo is what the build and save steps of a setup leave behind.
type buildInfo struct {
	corpusPath, indexPath string
	openTime              time.Duration
	saveCorpus, saveIndex time.Duration
	// Registry gauges and counters of the built engine.
	gridS, vantageS, treeS float64
	buildDistances         int64
	indexBytes             int64
}

// buildAndSave indexes db with default Workers and writes the corpus
// (GRDB001) and the index (NBIDX004) into dir.
func buildAndSave(db *graphrep.Database, shards int, dir string) (buildInfo, error) {
	bi := buildInfo{corpusPath: filepath.Join(dir, "corpus.grdb"), indexPath: filepath.Join(dir, "index.nbx")}
	start := time.Now()
	eng, err := graphrep.Open(db, graphrep.Options{Shards: shards})
	if err != nil {
		return bi, fmt.Errorf("open: %w", err)
	}
	bi.openTime = time.Since(start)
	bi.buildDistances = eng.Telemetry().Snapshot().DistanceComputations
	bi.indexBytes = eng.IndexBytes()
	g, err := registryGauges(eng)
	if err != nil {
		return bi, err
	}
	bi.gridS, bi.vantageS, bi.treeS = g["graphrep_build_grid_seconds"], g["graphrep_build_vantage_seconds"], g["graphrep_build_tree_seconds"]

	start = time.Now()
	if err := writeFile(bi.corpusPath, func(w io.Writer) error { return graphrep.SaveDatabase(w, db) }); err != nil {
		return bi, fmt.Errorf("save corpus: %w", err)
	}
	bi.saveCorpus = time.Since(start)
	start = time.Now()
	if err := writeFile(bi.indexPath, eng.SaveIndex); err != nil {
		return bi, fmt.Errorf("save index: %w", err)
	}
	bi.saveIndex = time.Since(start)
	return bi, eng.Close()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// registryGauges reads every unlabelled sample of the engine's metric
// registry from its Prometheus exposition.
func registryGauges(eng *graphrep.Engine) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := eng.Telemetry().WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("read registry: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// served is one reopened engine behind an in-process loopback server.
type served struct {
	db         *graphrep.Database
	eng        *graphrep.Engine
	openCorpus time.Duration
	openIndex  time.Duration
	url        string
	srv        *http.Server
	done       chan error
	client     *http.Client
	probe      *speedProbe // when set, httpPass runs it once after every op
}

// reopen maps the saved corpus and index — repserve's restart path — and
// returns an engine with an empty distance memo and fresh tier gates.
func reopen(bi buildInfo) (*served, error) {
	s := &served{}
	start := time.Now()
	db, err := graphrep.OpenDatabaseFile(bi.corpusPath)
	if err != nil {
		return nil, fmt.Errorf("open corpus: %w", err)
	}
	s.openCorpus = time.Since(start)
	start = time.Now()
	eng, err := graphrep.OpenWithIndexFile(db, bi.indexPath)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("open index: %w", err)
	}
	s.openIndex = time.Since(start)
	s.db, s.eng = db, eng
	return s, nil
}

// restart reopens the saved files behind a new server, wrapped by wrap when
// non-nil, and sends the plan's warm-up ops: a fresh engine in the state
// every measured pass starts from.
func restart(bi buildInfo, pl plan, wrap func(http.Handler) http.Handler) (*served, error) {
	s, err := reopen(bi)
	if err != nil {
		return nil, err
	}
	if err := s.serve(wrap); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmupHTTP(pl); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve starts server.New(eng).Handler(), wrapped by wrap when non-nil, on a
// 127.0.0.1:0 listener, with a client holding one keep-alive connection.
func (s *served) serve(wrap func(http.Handler) http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	h := server.New(s.eng).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the server (waiting for its goroutine) and releases the
// engine's mappings.
func (s *served) close() error {
	var errs []error
	if s.srv != nil {
		s.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.eng.Close(), s.db.Close())
	return errors.Join(errs...)
}
