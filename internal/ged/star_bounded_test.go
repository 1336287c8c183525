package ged

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The tentpole property: on random graph pairs, the threshold test never
// contradicts the exact star distance — Leq ⇔ Distance ≤ τ for every τ, the
// proven interval always sandwiches the distance, and a false verdict always
// carries a lower bound above τ. This is the ground truth behind the
// engine-level guarantee that the bounded kernel cannot change any answer.
func TestBoundedKernelNeverContradictsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewStarSig(randGraph(r, 10))
		b := NewStarSig(randGraph(r, 10))
		d := a.Distance(b)
		taus := []float64{d - 1, d - 0.5, d, d + 0.5, d + 1, 0, d / 2, d * 2, -1}
		for _, tau := range taus {
			dec := a.DistanceAtMost(b, tau)
			if dec.Leq != (d <= tau) {
				t.Logf("seed=%d tau=%v d=%v: Leq=%v stage=%v", seed, tau, d, dec.Leq, dec.Stage)
				return false
			}
			if dec.Lo > d || (dec.Hi < d) {
				t.Logf("seed=%d tau=%v d=%v: interval [%v,%v] excludes d", seed, tau, d, dec.Lo, dec.Hi)
				return false
			}
			if !dec.Leq && dec.Lo <= tau {
				t.Logf("seed=%d tau=%v: false verdict without a proving bound (lo=%v)", seed, tau, dec.Lo)
				return false
			}
			if dec.Leq && dec.Hi > tau {
				t.Logf("seed=%d tau=%v: true verdict without a proving bound (hi=%v)", seed, tau, dec.Hi)
				return false
			}
			if dec.Exact() && dec.Lo != d {
				t.Logf("seed=%d: exact stage value %v != distance %v", seed, dec.Lo, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// The policy contract behind the metric layer's adaptive greedy gate: the
// tryGreedy flag may not change a verdict or break the sandwich, and a
// disabled greedy stage never appears as the deciding stage.
func TestDistanceAtMostTiersPolicyInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewStarSig(randGraph(r, 10))
		b := NewStarSig(randGraph(r, 10))
		d := a.Distance(b)
		emblo := a.Embedding().LowerBound(b.Embedding())
		for _, tau := range []float64{d - 1, d - 0.5, d, d + 1, 0, d / 2, 2 * d} {
			for _, tryGreedy := range []bool{false, true} {
				dec := a.DistanceAtMostTiers(b, tau, emblo, tryGreedy)
				if dec.Leq != (d <= tau) {
					t.Logf("seed=%d tau=%v d=%v greedy=%v: Leq=%v stage=%v",
						seed, tau, d, tryGreedy, dec.Leq, dec.Stage)
					return false
				}
				if dec.Lo > d || dec.Hi < d {
					t.Logf("seed=%d tau=%v greedy=%v: interval [%v,%v] excludes d=%v",
						seed, tau, tryGreedy, dec.Lo, dec.Hi, d)
					return false
				}
				if !tryGreedy && dec.Stage == StageGreedy {
					t.Logf("seed=%d tau=%v: disabled greedy stage decided", seed, tau)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// The exact stage runs the warm-started solve; it must return the same value
// as the classic Distance, which stays the kernel-off reference
// implementation. With the greedy stage off and the embedding bound below τ,
// every decision reaches that solve.
func TestDistanceWarmMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		a := NewStarSig(randGraph(rng, 12))
		b := NewStarSig(randGraph(rng, 12))
		dec := a.DistanceAtMostTiers(b, math.Inf(1), 0, false)
		if want := a.Distance(b); dec.Stage != StageExact || dec.Lo != want || dec.Hi != want {
			t.Fatalf("trial %d: exact stage %+v, Distance %v", trial, dec, want)
		}
	}
	empty := NewStarSig(mkGraph(t, nil, nil))
	if dec := empty.DistanceAtMostTiers(empty, math.Inf(1), 0, false); dec.Lo != 0 || dec.Hi != 0 {
		t.Errorf("empty exact stage = %+v, want [0, 0]", dec)
	}
}

// Every stage must be reachable — otherwise a bound has quietly become dead
// code and the kernel degrades to always-exact.
func TestBoundedKernelStagesFire(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	seen := make(map[Stage]int)
	for i := 0; i < 4000; i++ {
		a := NewStarSig(randGraph(rng, 12))
		b := NewStarSig(randGraph(rng, 12))
		d := a.Distance(b)
		for _, tau := range []float64{0, d / 4, d / 2, d - 1, d, d + 2, 2*d + 4} {
			seen[a.DistanceAtMost(b, tau).Stage]++
		}
	}
	for _, st := range []Stage{StageEmbedding, StageGreedy, StageExact} {
		if seen[st] == 0 {
			t.Errorf("stage %v never fired across the corpus (distribution %v)", st, seen)
		}
	}
}

func TestDistanceAtMostEmpty(t *testing.T) {
	empty := NewStarSig(mkGraph(t, nil, nil))
	if dec := empty.DistanceAtMost(empty, 0); !dec.Leq || !dec.Exact() {
		t.Errorf("empty vs empty at tau=0: %+v", dec)
	}
	if dec := empty.DistanceAtMost(empty, -1); dec.Leq {
		t.Errorf("empty vs empty at tau=-1: %+v", dec)
	}
}

// Distance and DistanceAtMost run on pooled scratch: steady state must not
// allocate. This is the kernel-level half of the BenchmarkStarDistance
// allocs/op = 0 acceptance bar (the graph-level StarDistance still pays the
// one-off star decomposition).
func TestStarSigDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(61))
	a := NewStarSig(randGraph(rng, 20))
	b := NewStarSig(randGraph(rng, 20))
	d := a.Distance(b) // warm the pool
	if allocs := testing.AllocsPerRun(100, func() { a.Distance(b) }); allocs != 0 {
		t.Errorf("StarSig.Distance allocates %v per op after warmup, want 0", allocs)
	}
	for _, tau := range []float64{0, d / 2, d, 2 * d} {
		tau := tau
		if allocs := testing.AllocsPerRun(100, func() { a.DistanceAtMost(b, tau) }); allocs != 0 {
			t.Errorf("DistanceAtMost(τ=%v) allocates %v per op after warmup, want 0", tau, allocs)
		}
	}
}

var sinkDecision Decision

func BenchmarkDistanceAtMost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s1 := NewStarSig(randGraph(rng, 26))
	s2 := NewStarSig(randGraph(rng, 26))
	d := s1.Distance(s2)
	for _, tc := range []struct {
		name string
		tau  float64
	}{
		{"prune-far", d / 4},
		{"prune-near", d - 1},
		{"exact-at", d},
		{"accept-far", math.Ceil(d * 2)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkDecision = s1.DistanceAtMost(s2, tc.tau)
			}
		})
	}
}
