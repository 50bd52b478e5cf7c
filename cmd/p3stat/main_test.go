package main

import (
	"testing"

	"portals3/internal/experiments"
)

// TestRenderBundleDirectory renders every artifact of a torus run bundle,
// the trace routed by content, and rejects a directory holding none.
func TestRenderBundleDirectory(t *testing.T) {
	r := experiments.TorusHalo(experiments.TorusConfig{
		Dim: 3, Bytes: 64, Steps: 1, Radius: 1, Shards: 1,
		Telemetry: true, FlightRec: true, Trace: true, HostProf: true,
	})
	dir := t.TempDir()
	paths, err := r.Bundle.Write(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 6 {
		t.Fatalf("bundle wrote %d files, want 6: %v", len(paths), paths)
	}
	if err := renderPath(dir, 4); err != nil {
		t.Fatalf("rendering the bundle: %v", err)
	}
	if err := renderPath(t.TempDir(), 4); err == nil {
		t.Error("an empty directory rendered without error")
	}
}
