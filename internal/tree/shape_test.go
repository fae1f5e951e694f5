package tree

import "testing"

// TestBuildSignaturePinned holds Build to the trees the shapes have always
// named: the signatures below are the ones an older load generator computes
// locally and compares with the daemon's Welcome, so a Build that draws
// differently, or a Signature that hashes differently, fails here first.
func TestBuildSignaturePinned(t *testing.T) {
	const bare = 0x392209f14dea4c24 // the root alone, whatever the shape
	for _, tc := range []struct {
		kind  string
		seed  int64
		nodes int
		want  uint64
	}{
		{"balanced", 1, 1, bare},
		{"balanced", 1, 48, 0x3d48553b8e54b4d},
		{"balanced", 1, 256, 0xb41811d07f0b1519},
		{"balanced", 1, 8192, 0x19dcb0f5360d214e},
		{"balanced", 7, 1, bare},
		{"balanced", 7, 48, 0xf197c313ac18ab67},
		{"balanced", 7, 256, 0x1f720ec43ac05e1f},
		{"balanced", 7, 8192, 0x3502dae85737fc66},
		{"path", 1, 1, bare},
		{"path", 1, 48, 0x808bc7e0b6e38e55},
		{"path", 1, 256, 0x57b244c1e1b75aea},
		{"path", 1, 8192, 0xaa040ae83d224145},
		{"path", 7, 1, bare},
		{"path", 7, 48, 0x808bc7e0b6e38e55},
		{"path", 7, 256, 0x57b244c1e1b75aea},
		{"path", 7, 8192, 0xaa040ae83d224145},
		{"star", 1, 1, bare},
		{"star", 1, 48, 0x33342402ebb83ef4},
		{"star", 1, 256, 0x859366fcc00d650b},
		{"star", 1, 8192, 0xcd82e23c6eb3c664},
		{"star", 7, 1, bare},
		{"star", 7, 48, 0x33342402ebb83ef4},
		{"star", 7, 256, 0x859366fcc00d650b},
		{"star", 7, 8192, 0xcd82e23c6eb3c664},
	} {
		tr, _ := New()
		if err := Build(tr, Shape{Kind: tc.kind, Nodes: tc.nodes}, tc.seed); err != nil {
			t.Fatal(err)
		}
		if got := tr.Signature(); tr.Size() != tc.nodes || got != tc.want {
			t.Errorf("%s/%d at seed %d: %d nodes, signature %#x, want %d and %#x",
				tc.kind, tc.nodes, tc.seed, tr.Size(), got, tc.nodes, tc.want)
		}
	}

	// The zero Shape is the tree a tenant declared without one has always
	// started from: the bare root.
	tr, _ := New()
	if err := Build(tr, Shape{}, 1); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1 || tr.Signature() != bare {
		t.Errorf("zero Shape: %d nodes, signature %#x, want the bare root %#x", tr.Size(), tr.Signature(), uint64(bare))
	}
	if err := Build(tr, Shape{Kind: "ring", Nodes: 4}, 1); err == nil {
		t.Error("Build accepted an unknown shape")
	}
}
