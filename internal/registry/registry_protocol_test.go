package registry

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/oci"
)

func distribIngest(srv *Server, content []byte) (digest.Digest, error) {
	d, _, err := srv.Blobs().Ingest(bytes.NewReader(content), "")
	return d, err
}

// TestPutManifestRejectsMissingBlobs: a manifest referencing absent
// blobs must be rejected with 400 naming the missing digest.
func TestPutManifestRejectsMissingBlobs(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	missing := digest.FromString("never uploaded")
	manifest := fmt.Sprintf(`{"schemaVersion":2,"mediaType":%q,"config":{"mediaType":%q,"digest":%q,"size":5},"layers":[]}`,
		oci.MediaTypeManifest, oci.MediaTypeConfig, missing)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v2/app/manifests/v1", strings.NewReader(manifest))
	req.Header.Set("Content-Type", oci.MediaTypeManifest)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dangling manifest accepted: %s", resp.Status)
	}
	if !strings.Contains(string(body), string(missing)) {
		t.Errorf("400 body %q does not name the missing digest", body)
	}
	if len(srv.Tags()) != 0 {
		t.Error("rejected manifest was tagged")
	}
}

// TestResumableUpload drives the session protocol over raw HTTP: a
// chunk lands, a mis-aligned chunk is refused with 416 plus the
// committed range, the client re-queries the offset and completes.
func TestResumableUpload(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	content := []byte("the quick brown fox jumps over the lazy dog")
	d := digest.FromBytes(content)

	// Start a session.
	resp, err := http.Post(ts.URL+"/v2/app/blobs/uploads/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST upload: %s", resp.Status)
	}
	loc := ts.URL + resp.Header.Get("Location")

	// First chunk.
	chunk1 := content[:16]
	req, _ := http.NewRequest(http.MethodPatch, loc, bytes.NewReader(chunk1))
	req.Header.Set("Content-Range", "0-15")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("PATCH chunk 1: %s", resp.Status)
	}
	if got := resp.Header.Get("Range"); got != "0-15" {
		t.Errorf("Range after chunk 1 = %q, want 0-15", got)
	}

	// Simulate an interrupted transfer: the client re-sends from the
	// wrong offset and must get 416 with the committed range.
	req, _ = http.NewRequest(http.MethodPatch, loc, bytes.NewReader(content[20:]))
	req.Header.Set("Content-Range", fmt.Sprintf("20-%d", len(content)-1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("mis-aligned PATCH: %s, want 416", resp.Status)
	}
	if got := resp.Header.Get("Range"); got != "0-15" {
		t.Errorf("416 Range = %q, want 0-15", got)
	}

	// Recover the offset via GET, resume from it.
	resp, err = http.Get(loc)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("GET session: %s", resp.Status)
	}
	rng := resp.Header.Get("Range")
	var end int
	if _, err := fmt.Sscanf(rng, "0-%d", &end); err != nil {
		t.Fatalf("unparseable session range %q", rng)
	}
	offset := end + 1
	req, _ = http.NewRequest(http.MethodPatch, loc, bytes.NewReader(content[offset:]))
	req.Header.Set("Content-Range", fmt.Sprintf("%d-%d", offset, len(content)-1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resumed PATCH: %s", resp.Status)
	}

	// Finalize and verify.
	req, _ = http.NewRequest(http.MethodPut, loc+"?digest="+string(d), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT finalize: %s", resp.Status)
	}
	if got := resp.Header.Get("Docker-Content-Digest"); got != string(d) {
		t.Errorf("finalize digest = %q", got)
	}
	if !srv.Blobs().Has(d) {
		t.Error("blob absent after resumable upload")
	}
}

// TestUploadFinalizeRejectsBadDigest: a session whose content does not
// hash to the declared digest must fail the PUT.
func TestUploadFinalizeRejectsBadDigest(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v2/app/blobs/uploads/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	loc := ts.URL + resp.Header.Get("Location")
	req, _ := http.NewRequest(http.MethodPatch, loc, strings.NewReader("actual bytes"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodPut, loc+"?digest="+string(digest.FromString("other bytes")), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched finalize: %s, want 400", resp.Status)
	}
}

// TestRestartPersistence: push to a disk-backed registry, tear the
// server down, reopen the same directory, and pull — the acceptance
// path for `comtainer-registry -data`.
func TestRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	srv1, err := NewServerAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	src, tag := testImageRepo(t)
	if err := NewClient(ts1.URL).Push(context.Background(), src, tag, "user/demo", "v1"); err != nil {
		t.Fatal(err)
	}
	ts1.Close() // registry process dies

	srv2, err := NewServerAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if got := srv2.Tags(); len(got) != 1 || got[0] != "user/demo:v1" {
		t.Fatalf("tags after restart = %v", got)
	}
	dst := oci.NewRepository()
	if err := NewClient(ts2.URL).Pull(context.Background(), dst, "user/demo", "v1", "demo.pulled"); err != nil {
		t.Fatal(err)
	}
	srcDesc, _ := src.Resolve(tag)
	dstDesc, _ := dst.Resolve("demo.pulled")
	if srcDesc.Digest != dstDesc.Digest {
		t.Error("manifest digest changed across registry restart")
	}
	img, err := dst.LoadByTag("demo.pulled")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.Flatten(); err != nil {
		t.Errorf("pulled image does not flatten: %v", err)
	}
}

// TestConcurrentPushPullSharedImage hammers one disk-backed server
// with parallel pushes and pulls of the same image (run under -race
// via scripts/check.sh).
func TestConcurrentPushPullSharedImage(t *testing.T) {
	srv, err := NewServerAt(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	src, tag := testImageRepo(t)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(ts.URL)
			c.Workers = 3
			// Everyone pushes the same image under the same name…
			if err := c.Push(context.Background(), src, tag, "shared/app", "v1"); err != nil {
				errs <- err
				return
			}
			// …and pulls it back into a private store.
			dst := oci.NewRepository()
			if err := c.Pull(context.Background(), dst, "shared/app", "v1", "local"); err != nil {
				errs <- err
				return
			}
			want, _ := src.Resolve(tag)
			got, err := dst.Resolve("local")
			if err != nil || got.Digest != want.Digest {
				errs <- fmt.Errorf("worker %d: digest mismatch: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerGC: unreachable blobs are dropped, tagged images survive
// and remain pullable.
func TestServerGC(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	src, tag := testImageRepo(t)
	client := NewClient(ts.URL)
	if err := client.Push(context.Background(), src, tag, "keep/app", "v1"); err != nil {
		t.Fatal(err)
	}
	orphan, err := distribIngest(srv, []byte("orphaned blob"))
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := srv.GC()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if srv.Blobs().Has(orphan) {
		t.Error("orphan survived GC")
	}
	dst := oci.NewRepository()
	if err := client.Pull(context.Background(), dst, "keep/app", "v1", "x"); err != nil {
		t.Errorf("tagged image unpullable after GC: %v", err)
	}
}
