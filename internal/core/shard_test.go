package core

import (
	"context"
	"testing"

	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestShardedCountsSumOverShards pins the soundness argument of
// RunOptions.Shards: conversion is a fixed linear combination of the
// alternative counts, so a sharded run must report exactly the sum of
// the per-shard query results an unsharded runner produces on the same
// partitions.
func TestShardedCountsSumOverShards(t *testing.T) {
	g := routingGraph(t)
	queries := []*pattern.Pattern{
		pattern.FourCycle().AsVertexInduced(),
		pattern.FourStar().AsVertexInduced(),
		pattern.TailedTriangle(),
	}
	const k = 3

	// The plan-less route: every shard is a loop of one-leaf tries.
	sharded := &Runner{Engine: noPlanEngine{peregrine.New(2)}, RunOptions: RunOptions{Shards: k}}
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

	parts, err := graph.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != stats.Shards {
		t.Fatalf("runner mined %d shards, Partition produced %d", stats.Shards, len(parts))
	}
	want := make([]uint64, len(queries))
	for _, sg := range parts {
		plain := &Runner{Engine: noPlanEngine{peregrine.New(2)}}
		sc, _, err := plain.CountsCtx(context.Background(), sg, queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range sc {
			want[i] += c
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: sharded run counted %d, per-shard sum %d", i, got[i], want[i])
		}
	}

	// The merged trie must shard to the same numbers: it is built once on
	// the full graph and executed per shard.
	trie := &Runner{Engine: peregrine.New(2), RunOptions: RunOptions{Shards: k}}
	tc, tstats, err := trie.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if tstats.Trie == nil || !tstats.Trie.Used {
		t.Fatalf("sharded trie run recorded decision %+v", tstats.Trie)
	}
	if tstats.Mining.TriePasses != uint64(tstats.Shards) {
		t.Fatalf("sharded trie run recorded %d passes over %d shards", tstats.Mining.TriePasses, tstats.Shards)
	}
	for i := range want {
		if tc[i] != want[i] {
			t.Fatalf("query %d: sharded trie route counted %d, want %d", i, tc[i], want[i])
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
		RunOptions: RunOptions{Shards: 2}}
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
