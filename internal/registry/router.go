package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
)

// maxManifestSize bounds manifest documents and maxBlobSize a
// monolithic blob upload; session uploads stream to the upload spool.
const (
	maxManifestSize = 16 << 20
	maxBlobSize     = 1 << 30
)

// Backend is the storage behind the distribution router: a Server
// over its local store, or fleet.Proxy over the sharded fleet. The
// router owns the protocol — paths, upload sessions, manifest
// validation, headers and statuses — and hands a backend only
// validated work. A returned error is answered with the status it
// carries as a *StatusError, 404 when distrib.IsNotFound recognizes
// it, and 500 otherwise.
type Backend interface {
	// CommitBlob stores blob want: ingest writes the client's bytes,
	// verified against want, into a sink of the backend's choosing. The
	// router answers 201 only once CommitBlob returns nil, so a backend
	// makes the blob durable (replicated, pushed to its shard) first.
	CommitBlob(r *http.Request, name string, want digest.Digest, ingest func(distrib.BlobSink) error) error
	// ServeBlob answers a GET or HEAD of blob d. It returns an error
	// only before writing anything; the router answers that error.
	ServeBlob(w http.ResponseWriter, r *http.Request, name string, d digest.Digest) error
	// HasBlob answers the referential check of a manifest PUT.
	HasBlob(ctx context.Context, d digest.Digest) (bool, error)
	// PutManifest stores a validated manifest under name:ref, ref
	// being a tag or the manifest's own digest.
	PutManifest(r *http.Request, name, ref, mediaType string, body []byte) error
	// Manifest returns the manifest at name:ref, its digest and its
	// media type (empty defaults to an image manifest).
	Manifest(ctx context.Context, name, ref string) ([]byte, digest.Digest, string, error)
	// ListTags returns the tags of repository name.
	ListTags(ctx context.Context, name string) ([]string, error)
}

// StatusError is a backend failure carrying the HTTP status the router
// answers it with.
type StatusError struct {
	Code int
	Err  error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// writeError answers err with the status it carries.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var se *StatusError
	if errors.As(err, &se) {
		code = se.Code
	} else if distrib.IsNotFound(err) {
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

// contextReader fails reads once ctx is done, so a handler streaming a
// request body into the store stops promptly when the client has gone
// away instead of spooling bytes nobody will finalize.
type contextReader struct {
	ctx context.Context
	r   io.Reader
}

func (c contextReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// router serves the OCI distribution API over a Backend.
type router struct {
	b       Backend
	uploads *distrib.UploadManager
}

// NewRouter returns the OCI distribution API over b, keeping upload
// sessions in uploads. It is the one HTTP front end of both a Server
// and a fleet proxy.
func NewRouter(b Backend, uploads *distrib.UploadManager) http.Handler {
	return &router{b: b, uploads: uploads}
}

// ServeHTTP dispatches /v2/<name>/(manifests|blobs|blobs/uploads)/<ref>
// and /v2/<name>/tags/list.
func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v2/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	if rest == "" {
		w.WriteHeader(http.StatusOK) // API version check
		return
	}
	if name, ok := strings.CutSuffix(rest, "/tags/list"); ok && name != "" {
		if allowed(w, r, http.MethodGet) {
			rt.listTags(w, r, name)
		}
		return
	}
	// Find the resource kind separator from the right so names may
	// contain slashes.
	var name, kind, ref string
	for _, k := range []string{"/manifests/", "/blobs/"} {
		if i := strings.LastIndex(rest, k); i >= 0 {
			name, kind, ref = rest[:i], k, rest[i+len(k):]
			break
		}
	}
	if name == "" || ref == "" {
		http.NotFound(w, r)
		return
	}
	if kind == "/manifests/" {
		rt.manifest(w, r, name, ref)
		return
	}
	if id, ok := strings.CutPrefix(ref, "uploads"); ok {
		rt.upload(w, r, name, strings.TrimPrefix(id, "/"))
		return
	}
	if !allowed(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	d, err := digest.Parse(ref)
	if err != nil {
		http.Error(w, "invalid digest", http.StatusBadRequest)
		return
	}
	if err := rt.b.ServeBlob(w, r, name, d); err != nil {
		writeError(w, err)
	}
}

// allowed reports whether r uses one of methods, answering 405 when
// it does not.
func allowed(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	if slices.Contains(methods, r.Method) {
		return true
	}
	http.Error(w, "unsupported operation", http.StatusMethodNotAllowed)
	return false
}

// upload runs the upload-session protocol:
//
//	POST     /v2/<name>/blobs/uploads/              start a session (202, Location)
//	POST|PUT /v2/<name>/blobs/uploads/?digest=      monolithic upload (201)
//	PATCH    /v2/<name>/blobs/uploads/<id>          append a chunk (Content-Range checked)
//	PUT      /v2/<name>/blobs/uploads/<id>?digest=  finalize (verifies digest)
//	GET      /v2/<name>/blobs/uploads/<id>          committed offset (204, Range)
//	DELETE   /v2/<name>/blobs/uploads/<id>          cancel
func (rt *router) upload(w http.ResponseWriter, r *http.Request, name, id string) {
	body := contextReader{r.Context(), r.Body}
	if id == "" {
		if r.URL.Query().Get("digest") != "" {
			if allowed(w, r, http.MethodPost, http.MethodPut) {
				rt.commit(w, r, name, func(dst distrib.BlobSink, want digest.Digest) error {
					_, _, err := dst.Ingest(io.LimitReader(body, maxBlobSize), want)
					return err
				})
			}
			return
		}
		if !allowed(w, r, http.MethodPost) {
			return
		}
		u, err := rt.uploads.Start(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Location", "/v2/"+name+"/blobs/uploads/"+u.ID)
		sessionHeaders(w, u.ID, 0)
		w.WriteHeader(http.StatusAccepted)
		return
	}
	u, ok := rt.uploads.Get(id)
	if !ok {
		http.Error(w, "upload unknown", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodPatch:
		expectStart := int64(-1)
		if cr := r.Header.Get("Content-Range"); cr != "" {
			start, _, ok := strings.Cut(strings.TrimPrefix(cr, "bytes "), "-")
			n, err := strconv.ParseInt(start, 10, 64)
			if !ok || err != nil || n < 0 {
				http.Error(w, "malformed Content-Range", http.StatusBadRequest)
				return
			}
			expectStart = n
		}
		size, err := u.Append(body, expectStart)
		sessionHeaders(w, u.ID, size)
		if err != nil {
			// A mis-aligned chunk gets 416 plus the committed range so
			// the client can resume from the recorded offset.
			http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	case http.MethodPut:
		// An optional trailing chunk may ride on the finalizing PUT.
		if r.ContentLength != 0 {
			if _, err := u.Append(body, -1); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		rt.commit(w, r, name, func(dst distrib.BlobSink, want digest.Digest) error {
			_, _, err := rt.uploads.Commit(u, dst, want)
			return err
		})
	case http.MethodGet:
		sessionHeaders(w, u.ID, u.Size())
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		rt.uploads.Cancel(u)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "unsupported operation", http.StatusMethodNotAllowed)
	}
}

// sessionHeaders sets the session id and its committed Range ("0-0"
// when empty, per the docker convention).
func sessionHeaders(w http.ResponseWriter, id string, size int64) {
	rng := "0-0"
	if size > 0 {
		rng = fmt.Sprintf("0-%d", size-1)
	}
	w.Header().Set("Docker-Upload-UUID", id)
	w.Header().Set("Range", rng)
}

// commit completes a blob upload against the request's ?digest=: the
// backend stores the blob through ingest, whose failures (short or
// mismatched content) answer 400.
func (rt *router) commit(w http.ResponseWriter, r *http.Request, name string, ingest func(distrib.BlobSink, digest.Digest) error) {
	want, err := digest.Parse(r.URL.Query().Get("digest"))
	if err != nil {
		http.Error(w, "invalid digest", http.StatusBadRequest)
		return
	}
	err = rt.b.CommitBlob(r, name, want, func(dst distrib.BlobSink) error {
		if err := ingest(dst, want); err != nil {
			return &StatusError{Code: http.StatusBadRequest, Err: err}
		}
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v2/"+name+"/blobs/"+string(want))
	w.Header().Set("Docker-Content-Digest", string(want))
	w.WriteHeader(http.StatusCreated)
}

// manifest serves manifest GET and HEAD (the same headers, no body)
// and PUT.
func (rt *router) manifest(w http.ResponseWriter, r *http.Request, name, ref string) {
	if !allowed(w, r, http.MethodGet, http.MethodHead, http.MethodPut) {
		return
	}
	if r.Method == http.MethodPut {
		rt.putManifest(w, r, name, ref)
		return
	}
	body, d, mediaType, err := rt.b.Manifest(r.Context(), name, ref)
	if err != nil {
		writeError(w, err)
		return
	}
	if mediaType == "" {
		mediaType = oci.MediaTypeManifest
	}
	w.Header().Set("Content-Type", mediaType)
	w.Header().Set("Docker-Content-Digest", string(d))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodGet {
		_, _ = w.Write(body)
	}
}

// putManifest validates a manifest or manifest list pushed by tag or
// by digest before the backend stores it. Per distribution-spec
// semantics it rejects (400, naming the digest) any manifest whose
// referenced config/layers — or, for a list, member manifests — are
// not yet present, so clients must upload blobs first.
func (rt *router) putManifest(w http.ResponseWriter, r *http.Request, name, ref string) {
	body, err := io.ReadAll(io.LimitReader(contextReader{r.Context(), r.Body}, maxManifestSize))
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	var refs distrib.ManifestRefs
	if err := json.Unmarshal(body, &refs); err != nil {
		http.Error(w, "manifest is not valid JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	for _, rd := range refs.Blobs() {
		ok, err := rt.b.HasBlob(r.Context(), rd.Digest)
		if err != nil {
			writeError(w, err)
			return
		}
		if !ok {
			http.Error(w, fmt.Sprintf("manifest references missing blob %s", rd.Digest), http.StatusBadRequest)
			return
		}
	}
	d := digest.FromBytes(body)
	if want, err := digest.Parse(ref); err == nil && want != d {
		http.Error(w, fmt.Sprintf("manifest digest mismatch: content is %s, ref is %s", d, want), http.StatusBadRequest)
		return
	}
	mediaType := r.Header.Get("Content-Type")
	if mediaType == "" {
		mediaType = refs.MediaType()
	}
	if err := rt.b.PutManifest(r, name, ref, mediaType, body); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v2/"+name+"/manifests/"+string(d))
	w.Header().Set("Docker-Content-Digest", string(d))
	w.WriteHeader(http.StatusCreated)
}

// listTags serves the distribution tags/list endpoint.
func (rt *router) listTags(w http.ResponseWriter, r *http.Request, name string) {
	tags, err := rt.b.ListTags(r.Context(), name)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Name string   `json:"name"`
		Tags []string `json:"tags"`
	}{Name: name, Tags: tags})
}
