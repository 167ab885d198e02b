package remoteexec

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/registry"
)

// TestWorkerSnapshotMemoBounded: a long-lived worker serving more
// distinct session snapshots than memoTrees keeps at most memoTrees of
// them, and a snapshot fetched again after its eviction materializes
// unchanged.
func TestWorkerSnapshotMemoBounded(t *testing.T) {
	ts := httptest.NewServer(registry.NewServer().Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	w := &Worker{Client: distrib.NewClient(ts.URL)}
	var sources []*fsim.FS
	var trees []digest.Digest
	for i := 0; i < memoTrees+3; i++ {
		fsys := fsim.New()
		fsys.WriteFile("/src/main.c", []byte(fmt.Sprintf("int session = %d;\n", i)), 0o644)
		td, err := PushTree(ctx, w.Client, DefaultRepo, fsys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.tree(ctx, DefaultRepo, td); err != nil {
			t.Fatal(err)
		}
		sources, trees = append(sources, fsys), append(trees, td)
	}
	if n := len(w.trees); n != memoTrees {
		t.Fatalf("memo holds %d snapshots after %d sessions, want %d", n, len(trees), memoTrees)
	}
	got, err := w.tree(ctx, DefaultRepo, trees[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sources[0]) {
		t.Fatal("evicted snapshot fetched again differs from the pushed file system")
	}
	if n := len(w.trees); n != memoTrees {
		t.Fatalf("memo holds %d snapshots after a re-fetch, want %d", n, memoTrees)
	}
}
