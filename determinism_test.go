package graphrep_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"graphrep"
)

// openRun answers one fixed query against a freshly generated database and
// freshly built index, returning the JSON-encoded Result (byte comparison
// catches ordering differences DeepEqual might gloss over) and the
// QueryStats of the call.
func openRun(t *testing.T, dataset string, n int, seed int64, theta float64, k int) ([]byte, graphrep.QueryStats) {
	return openRunKernel(t, dataset, n, seed, theta, k, false)
}

// openRunKernel is openRun with control over the bounded distance kernel.
func openRunKernel(t *testing.T, dataset string, n int, seed int64, theta float64, k int, disableKernel bool) ([]byte, graphrep.QueryStats) {
	t.Helper()
	db, err := graphrep.GenerateDataset(dataset, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: seed + 1, DisableBoundedKernel: disableKernel})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.NewSession(graphrep.FirstQuartileRelevance(db, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.TopK(theta, k)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf, sess.LastStats()
}

// Determinism regression: the same (dataset, n, seed, query) must produce a
// byte-identical Result and identical QueryStats across two completely
// fresh Open calls — index construction, each query's vantage pass (which
// runs on a parallel worker pool), and the search itself must all be
// order-independent.
func TestDeterministicAcrossOpens(t *testing.T) {
	cases := []struct {
		dataset string
		n       int
		seed    int64
		theta   float64
		k       int
	}{
		{"dud", 150, 7, 10, 5},
		{"dud", 150, 7, 6, 8},
		{"dblp", 120, 3, 4, 4},
		{"amazon", 100, 11, 5, 6},
	}
	for _, c := range cases {
		res1, st1 := openRun(t, c.dataset, c.n, c.seed, c.theta, c.k)
		res2, st2 := openRun(t, c.dataset, c.n, c.seed, c.theta, c.k)
		if !bytes.Equal(res1, res2) {
			t.Errorf("%s n=%d seed=%d θ=%v k=%d: results differ:\n%s\nvs\n%s",
				c.dataset, c.n, c.seed, c.theta, c.k, res1, res2)
		}
		if st1 != st2 {
			t.Errorf("%s n=%d seed=%d θ=%v k=%d: stats differ: %+v vs %+v",
				c.dataset, c.n, c.seed, c.theta, c.k, st1, st2)
		}
		// The bounded kernel must be invisible in the Result: a fresh run
		// with DisableBoundedKernel produces the same bytes, the same total
		// candidate tests, and (necessarily) no pruned distances.
		res3, st3 := openRunKernel(t, c.dataset, c.n, c.seed, c.theta, c.k, true)
		if !bytes.Equal(res1, res3) {
			t.Errorf("%s n=%d seed=%d θ=%v k=%d: results differ with kernel disabled:\n%s\nvs\n%s",
				c.dataset, c.n, c.seed, c.theta, c.k, res1, res3)
		}
		if st3.PrunedDistances != 0 {
			t.Errorf("%s n=%d seed=%d θ=%v k=%d: disabled kernel reported %d pruned distances",
				c.dataset, c.n, c.seed, c.theta, c.k, st3.PrunedDistances)
		}
		if got, want := st3.ExactDistances, st1.ExactDistances+st1.PrunedDistances; got != want {
			t.Errorf("%s n=%d seed=%d θ=%v k=%d: candidate tests differ: %d with kernel off, %d on",
				c.dataset, c.n, c.seed, c.theta, c.k, got, want)
		}
	}
}
