package vantage

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"graphrep/internal/graph"
)

func TestOrderingEncodeRoundTrip(t *testing.T) {
	db, m := randDB(t, 40, 101)
	rng := rand.New(rand.NewSource(102))
	vps, err := SelectVPs(db, m, 5, SelectMaxMin, rng)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(db, m, vps)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := ReadOrdering(&buf)
	if err != nil {
		t.Fatalf("ReadOrdering: %v", err)
	}
	if got.NumVPs() != o.NumVPs() || got.Len() != o.Len() {
		t.Fatalf("shape differs: %d/%d vs %d/%d", got.NumVPs(), got.Len(), o.NumVPs(), o.Len())
	}
	if !reflect.DeepEqual(got.VPs(), o.VPs()) {
		t.Errorf("vps differ")
	}
	// Bounds and candidates must be identical.
	for i := 0; i < db.Len(); i++ {
		for j := 0; j < db.Len(); j += 3 {
			a, b := graph.ID(i), graph.ID(j)
			if got.LowerBound(a, b) != o.LowerBound(a, b) || got.UpperBound(a, b) != o.UpperBound(a, b) {
				t.Fatalf("bounds differ at (%d,%d)", i, j)
			}
		}
		want, wantLB := candidates(o, graph.ID(i), 4)
		have, haveLB := candidates(got, graph.ID(i), 4)
		if !reflect.DeepEqual(want, have) || !reflect.DeepEqual(wantLB, haveLB) {
			t.Fatalf("candidates differ for %d: %v vs %v", i, want, have)
		}
	}
}

func TestReadOrderingErrors(t *testing.T) {
	if _, err := ReadOrdering(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadOrdering(bytes.NewReader([]byte("junkjunkjunk"))); err == nil {
		t.Error("garbage accepted")
	}
}
