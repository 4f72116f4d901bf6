package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the frozen registry content addresses:
//
//	go test ./internal/scenario -run TestRegistryHashes -update
//
// Regenerate ONLY when a registry entry changes on purpose: every line is a
// result key prefix that clients and durable stores already hold.
var update = flag.Bool("update", false, "rewrite testdata/registry.hashes")

// TestRegistryHashes pins the content address (Hash) of every registry
// entry, one "name hash" line each in registry order, so a change to
// canonicalization, to a spec type's JSON shape or to a registry entry fails
// here with the entries it moved.
func TestRegistryHashes(t *testing.T) {
	var b strings.Builder
	for _, sp := range All() {
		h, err := Hash(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", sp.Name, h)
	}
	got := b.String()
	path := filepath.Join("testdata", "registry.hashes")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < max(len(wl), len(gl)); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Errorf("line %d:\n  want: %q\n  got:  %q", i+1, w, g)
			}
		}
	}
}
