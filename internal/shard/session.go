package shard

import (
	"context"
	"fmt"

	"graphrep/internal/core"
	"graphrep/internal/nbindex"
)

// NewSession runs the initialization phase for relevance function q. See
// NewSessionContext.
func (s *Set) NewSession(q core.Relevance) (*nbindex.Session, error) {
	return s.NewSessionContext(context.Background(), q)
}

// NewSessionContext runs the initialization phase for relevance function q:
// the relevance filter over the database. The session spans every shard's
// part — one part for a single-shard set — so the shard count never leaks
// into the query API.
func (s *Set) NewSessionContext(ctx context.Context, q core.Relevance) (*nbindex.Session, error) {
	// A database opened from a GRDB001 container defers its content
	// validation to first use; settle it before any session traverses graph
	// structure. Repeat sessions hit the cached verdict.
	if err := s.db.EnsureValid(); err != nil {
		return nil, fmt.Errorf("shard: graph store: %w", err)
	}
	return newCoordSession(ctx, s, q)
}

// newCoordSession is the coordinator: one nbindex session whose every TopK
// call searches every shard's part. The call's vantage pass scans each
// relevant graph's shared-VP coordinates against every shard's rows of the
// relevant graphs, in shard order, so its list is the unsharded candidate
// list and its length the unsharded bound; one heap keyed by global rel
// position then holds every relevant graph. Answers and search work are
// therefore the unsharded ones for any shard count.
func newCoordSession(ctx context.Context, set *Set, q core.Relevance) (*nbindex.Session, error) {
	// Parts loaded from a mapped v4 container defer their content
	// validation to first use; settle it for every shard before any
	// navigation, naming the shard that fails. Repeat sessions hit the
	// cached verdict.
	for p, part := range set.parts {
		if err := part.EnsureValid(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", p, err)
		}
	}
	return nbindex.NewForestSession(ctx, set.parts, q)
}
