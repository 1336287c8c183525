package graphrep_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"graphrep"
)

// The NBIDX004 (zero-copy mmap) persistence contract, as tests:
//
//   - an index opened from a mapped file answers byte-identically —
//     answers and sweep curves — to the engine that built it, and does the
//     same search work, for every shard count × worker count combination;
//   - one shared mapping serves any number of concurrent query goroutines
//     (the -race build is the real assertion);
//   - DisableMmap (and platforms without mmap) read the file instead, with
//     identical results, QueryStats included;
//   - the committed golden file (dud-120 seed-7, two shards) is exactly what
//     a fresh build saves, loads, answers identically, and re-saves to the
//     same bytes;
//   - any other format — the retired gob layouts NBIDX001–NBIDX003, or
//     bytes that are no index at all — fails with an error naming it.

// saveIndexFile persists engine to a file named after tag in dir.
func saveIndexFile(t *testing.T, engine *graphrep.Engine, dir string, tag string) string {
	t.Helper()
	path := filepath.Join(dir, tag+".nbx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// searchWork is the part of QueryStats that a mapped engine must share with
// the engine that built its index. The exact/pruned split of the distance
// tests is left out: the build leaves the distance cache warm, which moves
// tests from exact to pruned without changing how many are issued.
type searchWork struct{ pops, leaves, scans, tests int }

func searchWorkOf(stats []graphrep.QueryStats) []searchWork {
	w := make([]searchWork, len(stats))
	for i, s := range stats {
		w[i] = searchWork{s.PQPops, s.VerifiedLeaves, s.CandidateScans, s.ExactDistances + s.PrunedDistances}
	}
	return w
}

// TestV4MmapEqualsV3Loaded is the persistence acceptance matrix: an index
// opened from a memory mapping must produce byte-identical answers and sweep
// curves to the engine that built it, and the same search work — heap pops,
// verified leaves, candidate scans and threshold tests issued — for shard
// counts 1, 2, 4 and session workers 1 and GOMAXPROCS. The mapped engine
// must also re-save to the exact bytes it was opened from.
func TestV4MmapEqualsV3Loaded(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, shards := range []int{1, 2, 4} {
		engine, err := graphrep.Open(db, graphrep.Options{Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		path := saveIndexFile(t, engine, dir, fmt.Sprintf("s%d", shards))
		wantAnswers, wantStats, wantPoints := collectAnswers(t, engine, 5)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			mapped, err := graphrep.OpenWithIndexFile(db, path, graphrep.Options{Workers: workers})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: open: %v", shards, workers, err)
			}
			if mapped.Shards() != shards {
				t.Fatalf("mapped engine has %d shards, want %d", mapped.Shards(), shards)
			}
			answers, stats, points := collectAnswers(t, mapped, 5)
			if !reflect.DeepEqual(answers, wantAnswers) {
				t.Errorf("shards=%d workers=%d: mapped answers differ from the built engine:\n got %+v\nwant %+v",
					shards, workers, answers, wantAnswers)
			}
			if !reflect.DeepEqual(points, wantPoints) {
				t.Errorf("shards=%d workers=%d: mapped sweep curve differs from the built engine", shards, workers)
			}
			if got, want := searchWorkOf(stats), searchWorkOf(wantStats); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d workers=%d: mapped search work differs from the built engine:\n got %+v\nwant %+v",
					shards, workers, got, want)
			}
			var again bytes.Buffer
			if err := mapped.SaveIndex(&again); err != nil {
				t.Fatal(err)
			}
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), disk) {
				t.Errorf("shards=%d workers=%d: mapped re-save differs from the file it was opened from",
					shards, workers)
			}
			if err := mapped.Close(); err != nil {
				t.Errorf("shards=%d workers=%d: close: %v", shards, workers, err)
			}
		}
	}
}

// TestV4ConcurrentQueriesSharedMapping runs many query goroutines — separate
// sessions and a shared session — against one mapped index. Under -race this
// is the data-race acceptance test for the zero-copy read path, including
// the lazily-decoded embedding table.
func TestV4ConcurrentQueriesSharedMapping(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := saveIndexFile(t, engine, t.TempDir(), "conc")
	wantAnswers, _, wantPoints := collectAnswers(t, engine, 5)

	mapped, err := graphrep.OpenWithIndexFile(db, path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	rel := graphrep.FirstQuartileRelevance(db, nil)
	shared, err := mapped.NewSession(rel)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := shared
			if g%2 == 0 {
				var err error
				if sess, err = mapped.NewSession(rel); err != nil {
					errs <- err
					return
				}
			}
			for i, theta := range equalityThetas {
				res, err := sess.TopK(theta, 5)
				if err != nil {
					errs <- err
					return
				}
				got := answer{Answer: res.Answer, Gains: res.Gains,
					Covered: res.Covered, Relevant: res.Relevant, Power: res.Power}
				if !reflect.DeepEqual(got, wantAnswers[i]) {
					errs <- fmt.Errorf("goroutine %d theta=%v: answer differs from built engine", g, theta)
					return
				}
			}
			points, err := sess.SweepTheta(5)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(points, wantPoints) {
				errs <- fmt.Errorf("goroutine %d: sweep curve differs from built engine", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOpenWithIndexFileDisableMmap checks the read fallback: with mapping
// disabled the same file produces identical answers and QueryStats, and
// Close stays safe (idempotent).
func TestOpenWithIndexFileDisableMmap(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := saveIndexFile(t, engine, t.TempDir(), "fallback")
	// Baseline: the mapped open. (Not the builder — its warm distance cache
	// legitimately shifts the pruned/exact stats split.)
	mapped, err := graphrep.OpenWithIndexFile(db, path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	wantAnswers, wantStats, _ := collectAnswers(t, mapped, 4)

	noMmap, err := graphrep.OpenWithIndexFile(db, path, graphrep.Options{DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	answers, stats, _ := collectAnswers(t, noMmap, 4)
	if !reflect.DeepEqual(answers, wantAnswers) || !reflect.DeepEqual(stats, wantStats) {
		t.Error("DisableMmap engine answers or stats differ from the mapped engine")
	}
	if err := noMmap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := noMmap.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexCompatMatrix pins the one index format. The committed golden
// file (dud-120 seed-7, two shards) must equal a fresh 2-shard save byte for
// byte, load with its shard layout, answer exactly like a fresh build, and
// re-save to the same bytes. Files in any other format — the retired gob
// layouts NBIDX001–NBIDX003 and bytes that are no index — must fail through
// both open paths with an error that names the magic and says to rebuild.
func TestIndexCompatMatrix(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := graphrep.Open(db, graphrep.Options{Seed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var freshSave bytes.Buffer
	if err := fresh.SaveIndex(&freshSave); err != nil {
		t.Fatal(err)
	}
	wantAnswers, _, wantPoints := collectAnswers(t, fresh, 5)

	golden, err := os.ReadFile(filepath.Join("testdata", "index_v4_dud120_seed7.nbx"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshSave.Bytes(), golden) {
		t.Fatalf("a fresh 2-shard save (%d bytes) differs from the committed golden file (%d bytes)",
			freshSave.Len(), len(golden))
	}
	loaded, err := graphrep.OpenWithIndex(db, bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden file no longer loads: %v", err)
	}
	if loaded.Shards() != 2 {
		t.Fatalf("golden file loaded as %d shards, want 2", loaded.Shards())
	}
	answers, _, points := collectAnswers(t, loaded, 5)
	if !reflect.DeepEqual(answers, wantAnswers) {
		t.Errorf("golden answers differ from a fresh build:\n got %+v\nwant %+v", answers, wantAnswers)
	}
	if !reflect.DeepEqual(points, wantPoints) {
		t.Error("golden sweep curve differs from a fresh build")
	}
	var resave bytes.Buffer
	if err := loaded.SaveIndex(&resave); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resave.Bytes(), golden) {
		t.Error("golden file re-saves to different bytes")
	}

	dir := t.TempDir()
	for _, m := range []string{"NBIDX001", "NBIDX002", "NBIDX003", "GRDB001\x00", "garbage!"} {
		// The golden body behind another magic.
		blob := append([]byte(m), golden[8:]...)
		path := filepath.Join(dir, "old.nbx")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errStream := graphrep.OpenWithIndex(db, bytes.NewReader(blob))
		_, errFile := graphrep.OpenWithIndexFile(db, path)
		for _, err := range []error{errStream, errFile} {
			if err == nil {
				t.Errorf("%q: a file in another format opened", m)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", m)) || !strings.Contains(msg, "rebuild") {
				t.Errorf("%q: error %q does not name the magic and say to rebuild", m, msg)
			}
		}
	}
}
