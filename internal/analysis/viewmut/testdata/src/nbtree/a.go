// Package nbtree mirrors the flat tree of the real internal/nbtree: the
// deferred constructor retains caller-provided (possibly mapped) arrays,
// Insert is the sanctioned copy-on-write site, and the builder hands arrays
// it accumulated itself to one struct literal.
package nbtree

import "slices"

// Flat retains its arrays; owned is false while they are views.
type Flat struct {
	Sizes       []int32 // want Sizes:`ViewHolder`
	NextSibling []int32 // want NextSibling:`ViewHolder`
	owned       bool
}

// NewFlatDeferred retains the arrays without copying.
func NewFlatDeferred(sizes, nextSibling []int32) *Flat {
	return &Flat{Sizes: sizes, NextSibling: nextSibling}
}

// Insert is whitelisted in ThawSites: it copies the arrays onto the heap
// before its first element write or append.
func (f *Flat) Insert(n int32) {
	if !f.owned {
		f.Sizes = slices.Clone(f.Sizes)
		f.NextSibling = slices.Clone(f.NextSibling)
		f.owned = true
	}
	f.Sizes[n]++
	f.Sizes = append(f.Sizes, 1)
	f.NextSibling = append(f.NextSibling, -1)
	f.NextSibling[n] = int32(len(f.Sizes) - 1)
}

// Grow is the seeded violation: an element write outside the thaw site.
func (f *Flat) Grow(n int32) {
	f.Sizes[n]++ // want `write into view-backed slice`
}

// Build needs no exemption: its arrays are its own until the literal.
func Build(n int) *Flat {
	var sizes, next []int32
	for i := 0; i < n; i++ {
		sizes = append(sizes, 1)
		next = append(next, -1)
	}
	next[0] = 1
	return &Flat{Sizes: sizes, NextSibling: next, owned: true}
}
