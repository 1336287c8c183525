package graphrep_test

import (
	"testing"

	"graphrep"
)

// TestCascadeNoDeadTierOnReferenceWorkload pins the fix for the dead-tier
// regression: on the reference bench workload (dud, n=400 — the exact
// configuration where the retired size and histogram tiers fired zero times)
// each of the three stages — embedding, greedy, exact — must decide at least
// one threshold test.
// A permanently-zero counter means a tier is burning comparisons per call
// without ever terminating one, which is how the kernel's bounded path came
// to lose to the exact path in the first place.
func TestCascadeNoDeadTierOnReferenceWorkload(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.NewSession(graphrep.FirstQuartileRelevance(db, nil))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := sess.SweepTheta(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sweep {
		if _, err := sess.TopK(p.Theta, 5); err != nil {
			t.Fatal(err)
		}
	}

	prune := engine.Telemetry().Snapshot().Prune
	for _, tier := range []struct {
		name  string
		fired int64
	}{
		{"embedding", prune.Embedding},
		{"greedy", prune.Greedy},
		{"exact", prune.BoundedExact},
	} {
		if tier.fired == 0 {
			t.Errorf("stage %s never fired on the reference workload (%+v)", tier.name, prune)
		}
	}
}
