package graphrep_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"graphrep"
	"graphrep/internal/container"
)

// The NBIDX004 (zero-copy mmap) persistence contract, as tests:
//
//   - an index opened from a mapped file answers byte-identically —
//     answers and sweep curves — to the engine that built it, and does the
//     same search work, for every shard count × worker count combination;
//   - an index opened from a file, mapped or read, grows by Insert into
//     exactly what the engine that built it grows into — answers, search
//     work and re-saved bytes — copying the mapped parts onto the heap
//     rather than writing the mapping;
//   - one shared mapping serves any number of concurrent query goroutines
//     (the -race build is the real assertion);
//   - DisableMmap (and platforms without mmap) read the file instead, with
//     identical results, QueryStats included;
//   - the committed golden file (dud-120 seed-7, two shards) is exactly what
//     a fresh build saves, loads, answers identically, and re-saves to the
//     same bytes, and so does the file as saved while the NB-Tree sections
//     were still written; a file whose θ grid (section kind 2) was sampled
//     from random pairs, as earlier builds saved it, answers identically
//     and sweeps the grid it stores;
//   - any other format — the retired gob layouts NBIDX001–NBIDX003, or
//     bytes that are no index at all — fails with an error naming it, and
//     an NBIDX004 file from before the current section set fails with an
//     error naming the section it lacks.

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
type searchWork struct{ pops, leaves, scans, passPairs, tests int }

func searchWorkOf(stats []graphrep.QueryStats) []searchWork {
	w := make([]searchWork, len(stats))
	for i, s := range stats {
		w[i] = searchWork{s.PQPops, s.VerifiedLeaves, s.CandidateScans, s.PassPairs, s.ExactDistances + s.PrunedDistances}
	}
	return w
}

// TestV4MmapEqualsBuilt is the persistence acceptance matrix: an index
// opened from a memory mapping must produce byte-identical answers and sweep
// curves to the engine that built it, and the same search work — heap pops,
// verified leaves, candidate scans, vantage-pass pairs and threshold tests
// issued — for shard counts 1, 2, 4 and session workers 1 and GOMAXPROCS.
// The mapped engine must also report the built engine's IndexBytes, since
// both hold the same structures, and re-save to the exact bytes it was
// opened from.
func TestV4MmapEqualsBuilt(t *testing.T) {
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
			if got, want := mapped.IndexBytes(), engine.IndexBytes(); got != want {
				t.Errorf("shards=%d workers=%d: mapped IndexBytes %d, built %d", shards, workers, got, want)
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

// TestV4InsertAfterOpenMatchesBuilt grows an index after a reopen: the
// engine that built it and the engines reopened from its file, mapped and
// with DisableMmap, take the same inserts, at 1 and 4 shards. The reopened
// parts start as views of the file and must grow copy-on-write into exactly
// what the built engine grows into: the same answers, sweep curves, search
// work and IndexBytes, and the same bytes when each engine saves again. A
// write into the mapping would fault the mapped engine instead.
func TestV4InsertAfterOpenMatchesBuilt(t *testing.T) {
	extra, err := graphrep.GenerateDataset("dud", 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, shards := range []int{1, 4} {
		// Inserts append to the database, so every engine gets its own copy.
		corpus := func() *graphrep.Database {
			db, err := graphrep.GenerateDataset("dud", 150, 5)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		built, err := graphrep.Open(corpus(), graphrep.Options{Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		path := saveIndexFile(t, built, dir, fmt.Sprintf("insert%d", shards))
		engines := map[string]*graphrep.Engine{"built": built}
		for name, opt := range map[string]graphrep.Options{"mapped": {}, "DisableMmap": {DisableMmap: true}} {
			e, err := graphrep.OpenWithIndexFile(corpus(), path, opt)
			if err != nil {
				t.Fatalf("shards=%d %s: open: %v", shards, name, err)
			}
			defer e.Close()
			engines[name] = e
		}
		saves := map[string][]byte{}
		for name, e := range engines {
			db := e.Database()
			for i := 0; i < extra.Len(); i++ {
				id := graphrep.ID(db.Len())
				g, err := extra.Graph(graphrep.ID(i)).Clone(id).Build(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Insert(g); err != nil {
					t.Fatalf("shards=%d %s: insert %d: %v", shards, name, i, err)
				}
			}
			var buf bytes.Buffer
			if err := e.SaveIndex(&buf); err != nil {
				t.Fatal(err)
			}
			saves[name] = buf.Bytes()
		}
		wantAnswers, wantStats, wantPoints := collectAnswers(t, built, 5)
		for _, name := range []string{"mapped", "DisableMmap"} {
			e := engines[name]
			answers, stats, points := collectAnswers(t, e, 5)
			if !reflect.DeepEqual(answers, wantAnswers) {
				t.Errorf("shards=%d %s: answers after inserts differ from the built engine:\n got %+v\nwant %+v",
					shards, name, answers, wantAnswers)
			}
			if !reflect.DeepEqual(points, wantPoints) {
				t.Errorf("shards=%d %s: sweep curve after inserts differs from the built engine", shards, name)
			}
			if got, want := searchWorkOf(stats), searchWorkOf(wantStats); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d %s: search work after inserts differs from the built engine:\n got %+v\nwant %+v",
					shards, name, got, want)
			}
			if got, want := e.IndexBytes(), built.IndexBytes(); got != want {
				t.Errorf("shards=%d %s: IndexBytes %d after inserts, built engine %d", shards, name, got, want)
			}
			if !bytes.Equal(saves[name], saves["built"]) {
				t.Errorf("shards=%d %s: the save after inserts differs from the built engine's", shards, name)
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

// rewriteSections returns the NBIDX004 file data rewritten without its
// sections of kind drop and with extra appended, every other section kept
// byte for byte: how a file saved before kind drop existed, or while the
// extra kinds were still written, looks to the reader.
func rewriteSections(t *testing.T, data []byte, drop uint32, extra ...container.Section) []byte {
	t.Helper()
	count := binary.LittleEndian.Uint64(data[8:])
	var secs []container.Section
	for i := uint64(0); i < count; i++ {
		ent := data[container.HeaderLen+i*container.EntryLen:]
		if binary.LittleEndian.Uint32(ent) == drop {
			continue
		}
		off, n := binary.LittleEndian.Uint64(ent[8:]), binary.LittleEndian.Uint64(ent[16:])
		body := data[off : off+n]
		secs = append(secs, container.Section{
			Kind: binary.LittleEndian.Uint32(ent), Shard: binary.LittleEndian.Uint32(ent[4:]), Len: n,
			Write: func(w io.Writer) error { _, err := w.Write(body); return err },
		})
	}
	if drop != 0 && uint64(len(secs)) == count {
		t.Fatalf("the file has no section of kind %d", drop)
	}
	var buf bytes.Buffer
	if err := container.Write(&buf, [8]byte(data[:8]), append(secs, extra...)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withRetiredTree returns the golden file data with a section of each
// retired NB-Tree kind (20–26) per shard added, as files saved while the
// tree was still written carry them. Their bodies are zeros: no reader asks
// for those kinds.
func withRetiredTree(t *testing.T, data []byte, shards int) []byte {
	t.Helper()
	var extra []container.Section
	for sh := uint32(0); sh < uint32(shards); sh++ {
		for kind := uint32(20); kind <= 26; kind++ {
			extra = append(extra, container.Section{Kind: kind, Shard: sh, Len: 64,
				Write: func(w io.Writer) error { _, err := w.Write(make([]byte, 64)); return err }})
		}
	}
	return rewriteSections(t, data, 0, extra...)
}

// TestIndexCompatMatrix pins the one index format. The committed golden
// file (dud-120 seed-7, two shards) must equal a fresh 2-shard save byte for
// byte, load with its shard layout, answer exactly like a fresh build, and
// re-save to the same bytes. So must the golden file with the retired
// NB-Tree sections (kinds 20–26) added, through both open paths: files
// saved before the tree was retired still open. The golden file with a
// pair-sampled grid in kind 2 must answer the same and sweep its own grid. Files in any other format —
// the retired gob layouts NBIDX001–NBIDX003 and bytes that are no index —
// must fail through both open paths with an error that names the magic and
// says to rebuild.
// So must an NBIDX004 file saved before the order section (kind 14)
// replaced the retired sorted views, with an error that names the section.
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
	wantAnswers, wantStats, wantPoints := collectAnswers(t, fresh, 5)

	golden, err := os.ReadFile(filepath.Join("testdata", "index_v4_dud120_seed7.nbx"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshSave.Bytes(), golden) {
		t.Fatalf("a fresh 2-shard save (%d bytes) differs from the committed golden file (%d bytes)",
			freshSave.Len(), len(golden))
	}
	dir := t.TempDir()
	treeFile := withRetiredTree(t, golden, 2)
	withTree := filepath.Join(dir, "with_tree.nbx")
	if err := os.WriteFile(withTree, treeFile, 0o644); err != nil {
		t.Fatal(err)
	}
	opens := map[string]func() (*graphrep.Engine, error){
		"golden": func() (*graphrep.Engine, error) {
			return graphrep.OpenWithIndex(db, bytes.NewReader(golden))
		},
		"golden with tree sections, streamed": func() (*graphrep.Engine, error) {
			return graphrep.OpenWithIndex(db, bytes.NewReader(treeFile))
		},
		"golden with tree sections, mapped": func() (*graphrep.Engine, error) {
			return graphrep.OpenWithIndexFile(db, withTree)
		},
	}
	for name, open := range opens {
		loaded, err := open()
		if err != nil {
			t.Fatalf("%s no longer loads: %v", name, err)
		}
		if loaded.Shards() != 2 {
			t.Fatalf("%s loaded as %d shards, want 2", name, loaded.Shards())
		}
		answers, _, points := collectAnswers(t, loaded, 5)
		if !reflect.DeepEqual(answers, wantAnswers) {
			t.Errorf("%s answers differ from a fresh build:\n got %+v\nwant %+v", name, answers, wantAnswers)
		}
		if !reflect.DeepEqual(points, wantPoints) {
			t.Errorf("%s sweep curve differs from a fresh build", name)
		}
		var resave bytes.Buffer
		if err := loaded.SaveIndex(&resave); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resave.Bytes(), golden) {
			t.Errorf("%s re-saves to bytes other than the golden file's", name)
		}
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Files saved before the default grid came from the vantage rows store a
	// grid sampled from random pairs, and differ from a fresh save in section
	// kind 2 alone. Such a file keeps its grid: the same answers and search
	// work, and a sweep over the thresholds it stores.
	sampled := []float64{16, 71, 79, 81, 83, 84, 85, 87, 90, 95, 102}
	sampledFile := rewriteSections(t, golden, 2, container.Section{
		Kind: 2, Len: uint64(8 * len(sampled)), Write: container.LE(sampled)})
	loaded, err := graphrep.OpenWithIndex(db, bytes.NewReader(sampledFile))
	if err != nil {
		t.Fatalf("a file with a sampled grid no longer loads: %v", err)
	}
	answers, stats, points := collectAnswers(t, loaded, 5)
	if !reflect.DeepEqual(answers, wantAnswers) || !reflect.DeepEqual(searchWorkOf(stats), searchWorkOf(wantStats)) {
		t.Error("a file with a sampled grid answers or searches unlike a fresh build")
	}
	var thetas []float64
	for _, p := range points {
		thetas = append(thetas, p.Theta)
	}
	if !reflect.DeepEqual(thetas, sampled) {
		t.Errorf("a file with a sampled grid sweeps %v, want its stored grid %v", thetas, sampled)
	}

	// Each unusable file, with what its error must name besides "rebuild".
	type oldFile struct {
		names string
		blob  []byte
	}
	var olds []oldFile
	for _, m := range []string{"NBIDX001", "NBIDX002", "NBIDX003", "GRDB001\x00", "garbage!"} {
		// The golden body behind another magic.
		olds = append(olds, oldFile{fmt.Sprintf("%q", m), append([]byte(m), golden[8:]...)})
	}
	olds = append(olds, oldFile{"section kind 14", rewriteSections(t, golden, 14)})
	for _, old := range olds {
		path := filepath.Join(dir, "old.nbx")
		if err := os.WriteFile(path, old.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errStream := graphrep.OpenWithIndex(db, bytes.NewReader(old.blob))
		_, errFile := graphrep.OpenWithIndexFile(db, path)
		for _, err := range []error{errStream, errFile} {
			if err == nil {
				t.Errorf("%s: an unusable file opened", old.names)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, old.names) || !strings.Contains(msg, "rebuild") {
				t.Errorf("%s: error %q does not name it and say to rebuild", old.names, msg)
			}
		}
	}
}
