package core

import (
	"context"
	"testing"

	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestShardedCountsSumOverShards pins the soundness argument of
// Runner.Shards: conversion is a fixed linear combination of the
// alternative counts, so a sharded run must report exactly the sum, over
// the same partitions, of each query counted alone.
func TestShardedCountsSumOverShards(t *testing.T) {
	g := routingGraph(t)
	queries := []*pattern.Pattern{
		pattern.FourCycle().AsVertexInduced(),
		pattern.FourStar().AsVertexInduced(),
		pattern.TailedTriangle(),
	}
	const k = 3

	eng := peregrine.New(2)
	sharded := &Runner{Engine: eng, Shards: k}
	got, stats, err := sharded.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards < 2 || stats.Phase != PhaseDone {
		t.Fatalf("sharded run recorded shards=%d phase=%q", stats.Shards, stats.Phase)
	}
	if stats.Mining == nil || stats.Mining.Matches == 0 {
		t.Fatalf("sharded run accumulated no mining stats: %+v", stats.Mining)
	}
	// The merged trie is built once on the full graph and executed per
	// shard.
	if stats.Trie == nil || !stats.Trie.Used || stats.Mining.TriePasses != uint64(stats.Shards) {
		t.Fatalf("sharded run recorded decision %+v and %d passes over %d shards", stats.Trie, stats.Mining.TriePasses, stats.Shards)
	}

	// The reference: each query counted alone, a one-leaf trie per shard.
	parts, err := graph.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != stats.Shards {
		t.Fatalf("runner mined %d shards, Partition produced %d", stats.Shards, len(parts))
	}
	want := make([]uint64, len(queries))
	for _, sg := range parts {
		for i, q := range queries {
			c, _, err := eng.CountCtx(context.Background(), sg, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] += c
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: sharded run counted %d, per-shard sum %d", i, got[i], want[i])
		}
	}
}

// TestShardedSkipsExplainCalibration pins the documented precedence:
// per-pattern calibration is ill-defined when each pattern is mined once
// per shard, so a sharded explain run mines sharded and leaves
// PerPattern empty.
func TestShardedSkipsExplainCalibration(t *testing.T) {
	g := routingGraph(t)
	queries := []*pattern.Pattern{
		pattern.FourCycle().AsVertexInduced(),
		pattern.FourStar().AsVertexInduced(),
	}
	r := &Runner{Engine: peregrine.New(2), Explain: true,
		Shards: 2}
	_, stats, err := r.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 {
		t.Fatalf("explain+shards run recorded shards=%d", stats.Shards)
	}
	if len(stats.PerPattern) != 0 {
		t.Fatalf("explain+shards run produced %d PerPattern rows, want 0", len(stats.PerPattern))
	}
}
