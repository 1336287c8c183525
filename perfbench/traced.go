package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"graphrep"
)

// traced is the per-layer run. One setup builds and saves the files; then
// three passes replay the same ops, each on a fresh engine reopened from
// those files: U over HTTP untraced, A over HTTP with spans for the client
// round trip and the handler, and B directly against the engine with one
// span per public call. All three must answer and count identically.
func (r *runner) traced() error {
	var pl plan
	su, err := r.setup(0, &pl)
	if err != nil {
		return err
	}
	u := su.s.httpPass(pl, nil)
	r.verify("U", pl, u, su.n0)
	r.exact(su.s, pl, u)
	if err := su.s.close(); err != nil {
		return err
	}

	epoch := time.Now()
	ta, tb := newTracer("A", epoch), newTracer("B", epoch)
	sa, err := restart(su.bi, pl, ta.middleware)
	if err != nil {
		return err
	}
	a := sa.httpPass(pl, ta)
	r.verify("A", pl, a, su.n0)
	if err := sa.close(); err != nil {
		return err
	}

	sb, err := reopen(su.bi)
	if err != nil {
		return err
	}
	d := newDirect(sb.eng, tb)
	for _, o := range pl.warmup {
		if _, err := d.do(o, -1); err != nil {
			sb.close()
			return fmt.Errorf("direct warm-up: %w", err)
		}
	}
	b, err := d.pass(pl)
	if err != nil {
		sb.close()
		return err
	}
	r.verify("B", pl, b, su.n0)
	if err := sb.close(); err != nil {
		return err
	}

	r.report(u)
	r.same("pass A", u, a)
	r.same("pass B", u, b)
	spans := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", r.name, r.seed))
	if err := writeSpans(spans, ta, tb); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Println("spans written to", spans)
	r.layers(pl, su, u, a, ta, tb, d)
	return nil
}

// layers computes the per-layer metrics from the three passes.
func (r *runner) layers(pl plan, su setupResult, u, a pass, ta, tb *tracer, d *direct) {
	n := len(pl.ops)
	perOp := func(v int64) float64 { return float64(v) / float64(n) }
	c := u.counts

	r.add("graph.generate_s", su.generate.Seconds(), "s")
	r.add("graphrep.open_s", su.bi.openTime.Seconds(), "s")
	r.add("shard.build_grid_s", su.bi.gridS, "s")
	r.add("shard.build_vantage_s", su.bi.vantageS, "s")
	r.add("shard.build_tree_s", su.bi.treeS, "s")
	r.add("metric.build_distance_computations", float64(su.bi.buildDistances), "count")
	r.add("shard.index_bytes", float64(su.bi.indexBytes), "B")
	r.add("graph.save_corpus_ms", ms(su.bi.saveCorpus), "ms")
	r.add("shard.save_index_ms", ms(su.bi.saveIndex), "ms")
	r.add("graph.open_corpus_ms", ms(su.s.openCorpus), "ms")
	r.add("shard.open_index_ms", ms(su.s.openIndex), "ms")

	// Server layer: pass A's handler span against its round trip (wire) and
	// against pass B's engine time for the same op (the server's own work).
	round := ta.durations("client.roundtrip", n)
	handler := ta.durations("server.handler", n)
	engine := tb.durations("engine.op", n)
	var handlerMS, wire, self []float64
	bytes := 0
	over, overMax := 0, 0.0
	for i := 0; i < n; i++ {
		handlerMS = append(handlerMS, ms(handler[i]))
		wire = append(wire, ms(round[i]-handler[i]))
		self = append(self, ms(handler[i]-engine[i]))
		bytes += a.outcomes[i].bytes
		if engine[i] > handler[i] {
			over++
			overMax = max(overMax, ms(engine[i]-handler[i]))
		}
	}
	fmt.Printf("pass B engine time exceeds pass A handler time on %d of %d ops, by at most %.4f ms\n", over, n, overMax)
	r.add("server.handler_p50_ms", median(handlerMS), "ms")
	r.add("server.wire_ms_per_op", mean(wire), "ms")
	r.add("server.self_ms_per_op", mean(self), "ms")
	r.add("server.response_bytes_per_op", float64(bytes)/float64(n), "B")
	r.add("trace.engine_over_handler_ops", float64(over), "count")
	r.add("trace.engine_over_handler_max_ms", overMax, "ms")

	// Session and search layers, from pass B's spans.
	inits := tb.durations("nbindex.session_init", n)
	topk := tb.durations("nbindex.topk", n)
	inserts := tb.durations("shard.insert", n)
	var initMS, reinitMS, topkMS, insertMS []float64
	afterInsert := false
	for i, o := range pl.ops {
		if o.insert != nil {
			insertMS = append(insertMS, ms(inserts[i]))
			afterInsert = true
			continue
		}
		topkMS = append(topkMS, ms(topk[i]))
		if inits[i] > 0 {
			initMS = append(initMS, ms(inits[i]))
			if afterInsert {
				reinitMS = append(reinitMS, ms(inits[i]))
			}
		}
	}
	relevant := make([]float64, len(d.relevant))
	for i, v := range d.relevant {
		relevant[i] = float64(v)
	}
	r.add("nbindex.session_init_p50_ms", median(initMS), "ms")
	r.add("nbindex.session_inits", float64(c[cSessionInits]), "count")
	r.add("nbindex.relevant_per_session", mean(relevant), "count")
	r.add("nbindex.topk_p50_ms", median(topkMS), "ms")
	r.add("nbindex.pq_pops_per_op", perOp(c[cPQPops]), "count")
	r.add("nbindex.verified_leaves_per_op", perOp(c[cVerifiedLeaves]), "count")
	r.add("vantage.candidate_scans_per_op", perOp(c[cCandidateScans]), "count")
	r.add("shard.insert_p50_ms", median(insertMS), "ms")
	r.add("shard.inserts", float64(c[cInserts]), "count")
	r.add("nbindex.session_reinit_p50_ms", median(reinitMS), "ms")

	// Metric and kernel layers, from pass U's telemetry deltas.
	lookups := c[cCacheHits] + c[cCacheMisses]
	fmt.Printf("metric.pruned_ratio base: %d pruned of %d threshold tests\n", c[cPrunedTests], c[cThresholdTests])
	fmt.Printf("metric.cache_hit_ratio base: %d hits of %d memo lookups\n", c[cCacheHits], lookups)
	r.add("metric.threshold_tests_per_op", perOp(c[cThresholdTests]), "count")
	r.add("metric.pruned_ratio", ratio(float64(c[cPrunedTests]), float64(c[cThresholdTests])), "1")
	r.add("metric.cache_hit_ratio", ratio(float64(c[cCacheHits]), float64(lookups)), "1")
	r.add("metric.distance_computations_per_op", perOp(c[cDistances]), "count")
	r.add("ged.full_solves_per_op", perOp(c[cFullSolves]), "count")
	r.add("ged.prune_embedding_per_op", perOp(c[cPruneEmbedding]), "count")
	r.add("ged.prune_rowmin_per_op", perOp(c[cPruneRowMin]), "count")
	r.add("ged.prune_greedy_per_op", perOp(c[cPruneGreedy]), "count")
	r.add("ged.prune_dual_per_op", perOp(c[cPruneDual]), "count")
	r.add("ged.star_distance_us", starDistanceUS(su.corpus, r.seed), "us")

	r.add("runtime.alloc_kb_per_op", float64(u.allocBytes)/1024/float64(n), "KB")
	r.add("runtime.gc_cycles_per_op", float64(u.gcCycles)/float64(n), "count")
	r.add("runtime.gc_pause_ms_per_op", ms(u.gcPause)/float64(n), "ms")
	fmt.Printf("trace.overhead_ratio base: pass A %.4f s over pass U %.4f s\n", a.wall.Seconds(), u.wall.Seconds())
	r.add("trace.overhead_ratio", a.wall.Seconds()/u.wall.Seconds(), "1")
}

// starDistancePairs is the size of the kernel timing sample.
const starDistancePairs = 2000

// starDistanceUS is the mean graphrep.Distance time over a fixed seeded
// sample of corpus pairs: the kernel's cost per solve without the memo or
// the cascade.
func starDistanceUS(db *graphrep.Database, seed int64) float64 {
	pairs := samplePairs(db.Len(), rand.New(rand.NewSource(seed)), starDistancePairs)
	start := time.Now()
	for _, p := range pairs {
		graphrep.Distance(db.Graph(p[0]), db.Graph(p[1]))
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(len(pairs))
}
