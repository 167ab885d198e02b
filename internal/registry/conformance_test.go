// Distribution-API conformance: one table of raw HTTP exchanges run
// against every backend of the shared router — a bare registry.Server
// and a fleet.Proxy over two replicated shard groups, with and without
// its pull-through cache. Every row pins the status plus the
// Location, Docker-Upload-UUID, Range, Docker-Content-Digest,
// Content-Length and Content-Type headers, so both front ends are held
// to the same protocol, error paths included. External test package so
// it can import fleet.
package registry_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fleet"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// hdr maps a response header to its expected value: an exact string,
// "*" for any non-empty value, or "prefix*" for a prefix match.
type hdr map[string]string

// checkedHeaders are asserted on every row: a row that does not list
// one expects it absent.
var checkedHeaders = []string{
	"Location", "Docker-Upload-UUID", "Range",
	"Docker-Content-Digest", "Content-Length", "Content-Type",
}

type conformanceRow struct {
	name         string
	method, path string
	reqHdr       hdr
	body         string
	status       int
	want         hdr
	// wantBody, when set, is the exact response body; bodyHas a
	// substring it must contain. HEAD responses must always be empty.
	wantBody, bodyHas string
}

const (
	textPlain    = "text/plain; charset=utf-8"
	octetStream  = "application/octet-stream"
	layerContent = "conformance layer 0123456789"
	// sessionHead is what every {session} already holds when its row
	// runs; sessionTail completes it to the blob {up}.
	sessionHead = "0123456789abcdef"
	sessionTail = "ghij"
)

// plain is the header set of a text/plain error answer.
func plain(h hdr) hdr {
	h["Content-Type"] = textPlain
	h["Content-Length"] = "*"
	return h
}

var conformanceRows = []conformanceRow{
	// Routing.
	{name: "api version check", method: "GET", path: "/v2/", status: 200, want: hdr{"Content-Length": "0"}},
	{name: "outside the api", method: "GET", path: "/elsewhere", status: 404, want: plain(hdr{})},
	{name: "name without kind", method: "GET", path: "/v2/onlyname", status: 404, want: plain(hdr{})},
	{name: "unknown kind", method: "GET", path: "/v2/conf/app/things/x", status: 404, want: plain(hdr{})},
	{name: "blobs without ref", method: "GET", path: "/v2/conf/app/blobs/", status: 404, want: plain(hdr{})},
	{name: "manifests without ref", method: "GET", path: "/v2/conf/app/manifests/", status: 404, want: plain(hdr{})},
	{name: "blob wrong method", method: "DELETE", path: "/v2/conf/app/blobs/{blob}", status: 405, want: plain(hdr{})},
	{name: "manifest wrong method", method: "POST", path: "/v2/conf/app/manifests/v1", status: 405, want: plain(hdr{})},
	{name: "tags wrong method", method: "PUT", path: "/v2/conf/app/tags/list", status: 405, want: plain(hdr{})},

	// Blob reads.
	{name: "blob get", method: "GET", path: "/v2/conf/app/blobs/{blob}", status: 200,
		want:     hdr{"Content-Type": octetStream, "Content-Length": "{blobLen}", "Docker-Content-Digest": "{blob}", "Accept-Ranges": "bytes"},
		wantBody: layerContent},
	{name: "blob head", method: "HEAD", path: "/v2/conf/app/blobs/{blob}", status: 200,
		want: hdr{"Content-Type": octetStream, "Content-Length": "{blobLen}", "Docker-Content-Digest": "{blob}", "Accept-Ranges": "bytes"}},
	{name: "blob range", method: "GET", path: "/v2/conf/app/blobs/{blob}", reqHdr: hdr{"Range": "bytes=2-5"}, status: 206,
		want:     hdr{"Content-Type": octetStream, "Content-Length": "4", "Docker-Content-Digest": "{blob}", "Content-Range": "bytes 2-5/{blobLen}"},
		wantBody: layerContent[2:6]},
	{name: "blob open range", method: "GET", path: "/v2/conf/app/blobs/{blob}", reqHdr: hdr{"Range": "bytes=20-"}, status: 206,
		want:     hdr{"Content-Type": octetStream, "Content-Length": "8", "Docker-Content-Digest": "{blob}", "Content-Range": "bytes 20-27/{blobLen}"},
		wantBody: layerContent[20:]},
	{name: "blob range past end", method: "GET", path: "/v2/conf/app/blobs/{blob}", reqHdr: hdr{"Range": "bytes=10-99"}, status: 206,
		want:     hdr{"Content-Type": octetStream, "Content-Length": "18", "Docker-Content-Digest": "{blob}", "Content-Range": "bytes 10-27/{blobLen}"},
		wantBody: layerContent[10:]},
	{name: "blob unsatisfiable range", method: "GET", path: "/v2/conf/app/blobs/{blob}", reqHdr: hdr{"Range": "bytes=999-"}, status: 416,
		want: plain(hdr{"Docker-Content-Digest": "{blob}", "Content-Range": "bytes */{blobLen}"})},
	{name: "blob get missing", method: "GET", path: "/v2/conf/app/blobs/{missing}", status: 404, want: plain(hdr{})},
	{name: "blob head missing", method: "HEAD", path: "/v2/conf/app/blobs/{missing}", status: 404, want: plain(hdr{})},
	{name: "blob get bad digest", method: "GET", path: "/v2/conf/app/blobs/not-a-digest", status: 400, want: plain(hdr{})},
	{name: "blob head bad digest", method: "HEAD", path: "/v2/conf/app/blobs/not-a-digest", status: 400, want: plain(hdr{})},

	// Upload sessions.
	{name: "session start", method: "POST", path: "/v2/conf/app/blobs/uploads/", status: 202,
		want: hdr{"Location": "/v2/conf/app/blobs/uploads/*", "Docker-Upload-UUID": "*", "Range": "0-0", "Content-Length": "0"}},
	{name: "session patch aligned", method: "PATCH", path: "{session}", reqHdr: hdr{"Content-Range": "16-19"}, body: sessionTail, status: 202,
		want: hdr{"Docker-Upload-UUID": "{sessionID}", "Range": "0-19", "Content-Length": "0"}},
	{name: "session patch unconditional", method: "PATCH", path: "{session}", body: sessionTail, status: 202,
		want: hdr{"Docker-Upload-UUID": "{sessionID}", "Range": "0-19", "Content-Length": "0"}},
	{name: "session patch misaligned", method: "PATCH", path: "{session}", reqHdr: hdr{"Content-Range": "20-25"}, body: "xxxxxx", status: 416,
		want: plain(hdr{"Docker-Upload-UUID": "{sessionID}", "Range": "0-15"})},
	{name: "session patch malformed range", method: "PATCH", path: "{session}", reqHdr: hdr{"Content-Range": "x-y"}, body: "x", status: 400,
		want: plain(hdr{})},
	{name: "session status", method: "GET", path: "{session}", status: 204,
		want: hdr{"Docker-Upload-UUID": "{sessionID}", "Range": "0-15"}},
	{name: "session finalize", method: "PUT", path: "{session}?digest={up}", body: sessionTail, status: 201,
		want: hdr{"Location": "/v2/conf/app/blobs/{up}", "Docker-Content-Digest": "{up}", "Content-Length": "0"}},
	{name: "session finalize bad digest", method: "PUT", path: "{session}?digest={missing}", status: 400, want: plain(hdr{})},
	{name: "session finalize no digest", method: "PUT", path: "{session}", status: 400, want: plain(hdr{})},
	{name: "session cancel", method: "DELETE", path: "{session}", status: 204, want: hdr{}},
	{name: "session wrong method", method: "POST", path: "{session}", status: 405, want: plain(hdr{})},
	{name: "session unknown", method: "GET", path: "/v2/conf/app/blobs/uploads/0123456789abcdef", status: 404, want: plain(hdr{})},
	{name: "session unknown patch", method: "PATCH", path: "/v2/conf/app/blobs/uploads/0123456789abcdef", body: "x", status: 404, want: plain(hdr{})},
	{name: "session root put without digest", method: "PUT", path: "/v2/conf/app/blobs/uploads/", status: 405, want: plain(hdr{})},
	{name: "finalized blob readable", method: "HEAD", path: "/v2/conf/app/blobs/{up}", status: 200,
		want: hdr{"Content-Type": octetStream, "Content-Length": "20", "Docker-Content-Digest": "{up}", "Accept-Ranges": "bytes"}},

	// Monolithic uploads: PUT and POST with ?digest= commit, every
	// other method is refused without storing anything.
	{name: "monolithic put", method: "PUT", path: "/v2/conf/app/blobs/uploads?digest={mono}", body: "monolithic put", status: 201,
		want: hdr{"Location": "/v2/conf/app/blobs/{mono}", "Docker-Content-Digest": "{mono}", "Content-Length": "0"}},
	{name: "monolithic post", method: "POST", path: "/v2/conf/app/blobs/uploads/?digest={mono}", body: "monolithic put", status: 201,
		want: hdr{"Location": "/v2/conf/app/blobs/{mono}", "Docker-Content-Digest": "{mono}", "Content-Length": "0"}},
	{name: "monolithic get refused", method: "GET", path: "/v2/conf/app/blobs/uploads/?digest={refused}", body: "refused write", status: 405, want: plain(hdr{})},
	{name: "monolithic head refused", method: "HEAD", path: "/v2/conf/app/blobs/uploads/?digest={refused}", body: "refused write", status: 405, want: plain(hdr{})},
	{name: "monolithic patch refused", method: "PATCH", path: "/v2/conf/app/blobs/uploads/?digest={refused}", body: "refused write", status: 405, want: plain(hdr{})},
	{name: "monolithic delete refused", method: "DELETE", path: "/v2/conf/app/blobs/uploads/?digest={refused}", body: "refused write", status: 405, want: plain(hdr{})},
	{name: "refused writes stored nothing", method: "HEAD", path: "/v2/conf/app/blobs/{refused}", status: 404, want: plain(hdr{})},
	{name: "monolithic bad digest", method: "PUT", path: "/v2/conf/app/blobs/uploads?digest={missing}", body: "not that content", status: 400, want: plain(hdr{})},
	{name: "monolithic malformed digest", method: "PUT", path: "/v2/conf/app/blobs/uploads?digest=sha256:nope", body: "x", status: 400, want: plain(hdr{})},

	// Manifests.
	{name: "manifest get by tag", method: "GET", path: "/v2/conf/app/manifests/v1", status: 200,
		want:     hdr{"Content-Type": oci.MediaTypeManifest, "Docker-Content-Digest": "{manifest}", "Content-Length": "{manifestLen}"},
		wantBody: "{manifestBody}"},
	{name: "manifest head by tag", method: "HEAD", path: "/v2/conf/app/manifests/v1", status: 200,
		want: hdr{"Content-Type": oci.MediaTypeManifest, "Docker-Content-Digest": "{manifest}", "Content-Length": "{manifestLen}"}},
	{name: "manifest get by digest", method: "GET", path: "/v2/conf/app/manifests/{manifest}", status: 200,
		want:     hdr{"Content-Type": oci.MediaTypeManifest, "Docker-Content-Digest": "{manifest}", "Content-Length": "{manifestLen}"},
		wantBody: "{manifestBody}"},
	{name: "index media type defaulted", method: "HEAD", path: "/v2/conf/app/manifests/idx", status: 200,
		want: hdr{"Content-Type": oci.MediaTypeIndex, "Docker-Content-Digest": "{index}", "Content-Length": "*"}},
	{name: "manifest get unknown tag", method: "GET", path: "/v2/conf/app/manifests/nope", status: 404, want: plain(hdr{})},
	{name: "manifest head unknown tag", method: "HEAD", path: "/v2/conf/app/manifests/nope", status: 404, want: plain(hdr{})},
	{name: "manifest get unknown digest", method: "GET", path: "/v2/conf/app/manifests/{missing}", status: 404, want: plain(hdr{})},
	{name: "manifest put by tag", method: "PUT", path: "/v2/conf/app/manifests/v2", reqHdr: hdr{"Content-Type": oci.MediaTypeManifest},
		body: "{manifestBody}", status: 201,
		want: hdr{"Location": "/v2/conf/app/manifests/{manifest}", "Docker-Content-Digest": "{manifest}", "Content-Length": "0"}},
	{name: "manifest put by digest", method: "PUT", path: "/v2/conf/app/manifests/{manifest}", body: "{manifestBody}", status: 201,
		want: hdr{"Location": "/v2/conf/app/manifests/{manifest}", "Docker-Content-Digest": "{manifest}", "Content-Length": "0"}},
	{name: "manifest put missing reference", method: "PUT", path: "/v2/conf/app/manifests/v3", body: "{dangling}", status: 400,
		want: plain(hdr{}), bodyHas: "{missing}"},
	{name: "manifest put digest mismatch", method: "PUT", path: "/v2/conf/app/manifests/{missing}", body: "{manifestBody}", status: 400,
		want: plain(hdr{}), bodyHas: "digest mismatch"},
	{name: "manifest put invalid json", method: "PUT", path: "/v2/conf/app/manifests/v4", body: "not json", status: 400,
		want: plain(hdr{}), bodyHas: "not valid JSON"},
	{name: "rejected manifests left no tag", method: "HEAD", path: "/v2/conf/app/manifests/v3", status: 404, want: plain(hdr{})},

	// Tags.
	{name: "tags list", method: "GET", path: "/v2/conf/app/tags/list", status: 200,
		want: hdr{"Content-Type": "application/json", "Content-Length": "*"}, wantBody: `{"name":"conf/app","tags":["idx","v1","v2"]}` + "\n"},
	{name: "tags list empty", method: "GET", path: "/v2/nobody/tags/list", status: 200,
		want: hdr{"Content-Type": "application/json", "Content-Length": "*"}, wantBody: `{"name":"nobody","tags":null}` + "\n"},
}

// TestConformance runs every row, in order, against every backend.
func TestConformance(t *testing.T) {
	backends := []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"registry", func(t *testing.T) string { return serve(t, registry.NewServer().Handler()) }},
		{"fleet", func(t *testing.T) string { return startConformanceFleet(t, false) }},
		{"fleet-cached", func(t *testing.T) string { return startConformanceFleet(t, true) }},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			base := be.start(t)
			vars := seedConformance(t, base)
			for _, row := range conformanceRows {
				t.Run(row.name, func(t *testing.T) { runRow(t, base, vars, row) })
			}
		})
	}
}

func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// startConformanceFleet serves a proxy over 2 shard groups of 2
// replicas, each replica replicating symmetrically to its peer.
func startConformanceFleet(t *testing.T, cache bool) string {
	t.Helper()
	var groups []*fleet.ShardGroup
	for g := 0; g < 2; g++ {
		var srvs [2]*registry.Server
		var urls [2]string
		for i := range srvs {
			srvs[i] = registry.NewServer()
			srvs[i].TrustReferences = true
			urls[i] = serve(t, srvs[i].Handler())
		}
		for i, srv := range srvs {
			srv.SetCommitHook(fleet.NewReplicator(srv.Blobs(), nil, urls[1-i]))
		}
		group, err := fleet.NewShardGroup(fmt.Sprintf("group%d", g), urls[:]...)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, group)
	}
	p, err := fleet.NewProxy(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cache {
		if err := p.SetCache(oci.NewStore(), 0); err != nil {
			t.Fatal(err)
		}
	}
	return serve(t, p.Handler())
}

// seedConformance pushes conf/app:v1 (one config, one layer) and an
// index tagged idx without a Content-Type, and returns the row
// placeholders.
func seedConformance(t *testing.T, base string) map[string]string {
	t.Helper()
	src := oci.NewStore()
	layer := src.Put([]byte(layerContent))
	config := []byte(`{"architecture":"amd64","os":"linux"}`)
	cfg := src.Put(config)
	manifest := fmt.Sprintf(`{"schemaVersion":2,"mediaType":%q,"config":{"mediaType":%q,"digest":%q,"size":%d},"layers":[{"mediaType":%q,"digest":%q,"size":%d}]}`,
		oci.MediaTypeManifest, oci.MediaTypeConfig, cfg, len(config), oci.MediaTypeLayer, layer, len(layerContent))
	md := src.Put([]byte(manifest))
	c := distrib.NewClient(base)
	desc := oci.Descriptor{MediaType: oci.MediaTypeManifest, Digest: md, Size: int64(len(manifest))}
	if err := c.PushImage(context.Background(), src, desc, "conf/app", "v1"); err != nil {
		t.Fatalf("seeding push: %v", err)
	}
	index := fmt.Sprintf(`{"schemaVersion":2,"manifests":[{"mediaType":%q,"digest":%q,"size":%d}]}`,
		oci.MediaTypeManifest, md, len(manifest))
	req, _ := http.NewRequest(http.MethodPut, base+"/v2/conf/app/manifests/idx", strings.NewReader(index))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("seeding index: %s", resp.Status)
	}
	missing := digest.FromString("never uploaded")
	return map[string]string{
		"{blob}":         string(layer),
		"{blobLen}":      strconv.Itoa(len(layerContent)),
		"{missing}":      string(missing),
		"{manifest}":     string(md),
		"{manifestLen}":  strconv.Itoa(len(manifest)),
		"{manifestBody}": manifest,
		"{index}":        string(digest.FromString(index)),
		"{dangling}": fmt.Sprintf(`{"schemaVersion":2,"config":{"mediaType":%q,"digest":%q,"size":5},"layers":[]}`,
			oci.MediaTypeConfig, missing),
		"{up}":      string(digest.FromString(sessionHead + sessionTail)),
		"{mono}":    string(digest.FromString("monolithic put")),
		"{refused}": string(digest.FromString("refused write")),
	}
}

// startSession opens an upload session holding sessionHead and
// returns its Location and id.
func startSession(t *testing.T, base string) (string, string) {
	t.Helper()
	resp, err := http.Post(base+"/v2/conf/app/blobs/uploads/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	loc, id := resp.Header.Get("Location"), resp.Header.Get("Docker-Upload-UUID")
	req, _ := http.NewRequest(http.MethodPatch, base+loc, strings.NewReader(sessionHead))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seeding session: %s", resp.Status)
	}
	return loc, id
}

func runRow(t *testing.T, base string, vars map[string]string, row conformanceRow) {
	var pairs []string
	for k, v := range vars {
		pairs = append(pairs, k, v)
	}
	if strings.Contains(row.path, "{session}") {
		loc, id := startSession(t, base)
		pairs = append(pairs, "{session}", loc, "{sessionID}", id)
	}
	expand := strings.NewReplacer(pairs...).Replace

	req, err := http.NewRequest(row.method, base+expand(row.path), strings.NewReader(expand(row.body)))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range row.reqHdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	if resp.StatusCode != row.status {
		t.Errorf("status %d, want %d (body %q)", resp.StatusCode, row.status, body)
	}
	names := append([]string(nil), checkedHeaders...)
	for h := range row.want {
		if !slices.Contains(checkedHeaders, h) {
			names = append(names, h)
		}
	}
	for _, h := range names {
		got := resp.Header.Get(h)
		want, listed := row.want[h]
		want = expand(want)
		switch {
		case !listed:
			if got != "" {
				t.Errorf("%s = %q, want absent", h, got)
			}
		case strings.HasSuffix(want, "*"):
			if got == "" || !strings.HasPrefix(got, strings.TrimSuffix(want, "*")) {
				t.Errorf("%s = %q, want %q", h, got, want)
			}
		case got != want:
			t.Errorf("%s = %q, want %q", h, got, want)
		}
	}
	switch {
	case row.method == http.MethodHead && len(body) != 0:
		t.Errorf("HEAD returned %d body bytes", len(body))
	case row.wantBody != "" && string(body) != expand(row.wantBody):
		t.Errorf("body %q, want %q", body, expand(row.wantBody))
	case !strings.Contains(string(body), expand(row.bodyHas)):
		t.Errorf("body %q does not contain %q", body, expand(row.bodyHas))
	}
}
