package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"

	"graphrep"
	"graphrep/internal/server"
)

// checkQuery verifies the invariants every /query answer must hold. dbLen
// bounds the graph IDs the answer may name.
func checkQuery(req server.QueryRequest, status int, r server.QueryResponse, dbLen int) error {
	if status/100 != 2 {
		return fmt.Errorf("status %d", status)
	}
	if len(r.Answer) > req.K {
		return fmt.Errorf("|answer| = %d > k = %d", len(r.Answer), req.K)
	}
	if len(r.Gains) != len(r.Answer) {
		return fmt.Errorf("%d gains for %d answers", len(r.Gains), len(r.Answer))
	}
	seen := map[int32]bool{}
	for _, id := range r.Answer {
		if id < 0 || int(id) >= dbLen || seen[id] {
			return fmt.Errorf("answer id %d duplicate or outside [0,%d)", id, dbLen)
		}
		seen[id] = true
	}
	sum := 0
	for i, g := range r.Gains {
		if g <= 0 || (i > 0 && g > r.Gains[i-1]) {
			return fmt.Errorf("gains %v not positive and non-increasing", r.Gains)
		}
		sum += g
	}
	if sum != r.Covered {
		return fmt.Errorf("Σgains = %d ≠ covered = %d", sum, r.Covered)
	}
	if r.Relevant <= 0 || r.Covered > r.Relevant {
		return fmt.Errorf("covered = %d, relevant = %d", r.Covered, r.Relevant)
	}
	if want := float64(r.Covered) / float64(r.Relevant); math.Abs(r.Power-want) > 1e-12 {
		return fmt.Errorf("power = %v ≠ covered/relevant = %v", r.Power, want)
	}
	return nil
}

// checkInsert verifies an /insert answer assigned the next graph ID.
func checkInsert(status int, id, want int32) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	if id != want {
		return fmt.Errorf("insert got id %d, want %d", id, want)
	}
	return nil
}

// checkPass applies the invariants to every outcome of a pass over a
// corpus of n0 graphs and returns one error per failed op.
func checkPass(pl plan, outs []outcome, n0 int) []error {
	var errs []error
	dbLen := n0
	for i, o := range pl.ops {
		var err error
		if o.insert != nil {
			err = checkInsert(outs[i].status, outs[i].insertID, int32(dbLen))
			dbLen++
		} else {
			err = checkQuery(*o.query, outs[i].status, outs[i].query, dbLen)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d %s: %w", i, o.path(), err))
		}
	}
	return errs
}

// digest hashes every op's answer: answer IDs, gains, covered and relevant
// for a query, the assigned ID for an insert.
func digest(outs []outcome) string {
	h := sha256.New()
	var buf []byte
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	for _, o := range outs {
		buf = buf[:0]
		put(int64(o.status))
		put(int64(o.insertID))
		put(int64(len(o.query.Answer)))
		for i, id := range o.query.Answer {
			put(int64(id))
			put(int64(o.query.Gains[i]))
		}
		put(int64(o.query.Covered))
		put(int64(o.query.Relevant))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// exactChecks is how many ops the Alg. 1 baseline re-answers per run.
const exactChecks = 3

// exactCheck re-answers a fixed handful of query ops with the baseline
// greedy (Engine.TopKRepresentativeExact) on eng's final database and
// compares answers. Only ops after the last insert qualify, since they saw
// the final database; of those, the ones with the smallest relevant sets
// are chosen, ties to the earlier op, to bound the quadratic baseline.
func exactCheck(eng *graphrep.Engine, pl plan, outs []outcome) (checked int, errs []error) {
	var cand []int
	for i := len(pl.ops) - 1; i >= 0 && pl.ops[i].insert == nil; i-- {
		if outs[i].status/100 == 2 {
			cand = append(cand, i)
		}
	}
	sort.SliceStable(cand, func(a, b int) bool {
		ra, rb := outs[cand[a]].query.Relevant, outs[cand[b]].query.Relevant
		return ra < rb || (ra == rb && cand[a] < cand[b])
	})
	db := eng.Database()
	for _, i := range cand[:min(exactChecks, len(cand))] {
		q := pl.ops[i].query
		rel, err := compile(db, q.Relevance)
		if err == nil {
			var r *graphrep.Result
			r, err = eng.TopKRepresentativeExact(graphrep.Query{Relevance: rel, Theta: q.Theta, K: q.K})
			if err == nil {
				want, got := toResponse(r), outs[i].query
				if !slices.Equal(want.Answer, got.Answer) || !slices.Equal(want.Gains, got.Gains) || want.Covered != got.Covered {
					err = fmt.Errorf("answer %v gains %v, baseline greedy %v gains %v", got.Answer, got.Gains, want.Answer, want.Gains)
				}
			}
		}
		checked++
		if err != nil {
			errs = append(errs, fmt.Errorf("exact check of op %d: %w", i, err))
		}
	}
	return checked, errs
}
