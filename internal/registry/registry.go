// Package registry implements an OCI distribution registry over HTTP
// (stdlib only) plus a push/pull client — the repository hop of the
// coMtainer workflow ("images are then distributed via repositories",
// paper §1). The server mounts any distrib.Store, so it runs either
// fully in memory (oci.Store) or persistently on disk
// (distrib.DiskStore). Its HTTP surface is the package's distribution
// router (NewRouter), which speaks the protocol — resumable
// POST/PATCH/PUT blob upload sessions, HTTP Range blob GETs, manifest
// push/pull by tag or digest including manifest lists — over a
// Backend. The Server is one backend; the fleet proxy is the other.
package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
)

// DefaultGCGrace is how long a freshly committed blob is protected
// from GC even while unreferenced — long enough for the push that
// committed it to finish uploading siblings and register the manifest.
const DefaultGCGrace = time.Minute

// CommitHook observes committed writes before they are acknowledged.
// A fleet shard leader mounts one to replicate every commit to its
// followers: the handler only responds 201 once the hook returns nil,
// so an acknowledged write is durable on the follower too. A hook
// error turns into a 503 (and the just-ingested blob is rolled back
// when this request introduced it), so clients retry rather than
// treat an unreplicated write as pushed.
type CommitHook interface {
	// BlobCommitted runs after blob d landed in the store.
	BlobCommitted(ctx context.Context, d digest.Digest) error
	// ManifestCommitted runs after a manifest blob landed, before the
	// tag (if any) is registered locally. body is the manifest
	// document, ref the reference it was pushed under (tag or digest).
	ManifestCommitted(ctx context.Context, name, ref, mediaType string, body []byte) error
}

// Server is an OCI registry over a pluggable blob and tag store.
type Server struct {
	// TrustReferences skips the referenced-blobs-present check on
	// manifest PUTs. Fleet shards run with it set: blobs are
	// partitioned across shards by digest while manifests are fanned
	// out to every shard, so the fleet-wide referential check belongs
	// to the proxy, not the individual shard.
	TrustReferences bool
	// GCGrace is how long a freshly committed blob survives GC even
	// while unreferenced (DefaultGCGrace when zero; negative disables
	// the protection entirely).
	GCGrace time.Duration

	blobs   distrib.Store
	refs    distrib.TagStore
	uploads *distrib.UploadManager

	hookMu sync.Mutex
	hook   CommitHook

	recentMu sync.Mutex
	recent   map[digest.Digest]time.Time
}

// NewServer returns an in-memory registry server.
func NewServer() *Server {
	return &Server{
		blobs:   oci.NewStore(),
		refs:    distrib.NewMemTags(),
		uploads: distrib.NewUploadManager(""),
	}
}

// NewServerAt returns a registry server persisted under dir: blobs in
// a sharded distrib.DiskStore, tags one file per reference, upload
// sessions spooled to disk. Reopening the same dir after a restart
// serves everything previously pushed.
func NewServerAt(dir string) (*Server, error) {
	blobs, err := distrib.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	refs, err := distrib.NewDiskTags(dir)
	if err != nil {
		return nil, err
	}
	// Referential crash recovery: a tag whose manifest never committed
	// (crash between ref write and blob rename) must not survive a
	// restart, or every pull of it would 500.
	if _, err := distrib.SweepDanglingRefs(refs, blobs); err != nil {
		return nil, err
	}
	return &Server{
		blobs:   blobs,
		refs:    refs,
		uploads: distrib.NewUploadManager(filepath.Join(dir, "uploads")),
	}, nil
}

// NewServerWith returns a server over caller-provided stores.
func NewServerWith(blobs distrib.Store, refs distrib.TagStore) *Server {
	return &Server{blobs: blobs, refs: refs, uploads: distrib.NewUploadManager("")}
}

// Blobs exposes the mounted blob store (for inspection and GC).
func (s *Server) Blobs() distrib.Store { return s.blobs }

// SetCommitHook installs (or, with nil, removes) the commit hook.
// Safe to call while the server is handling requests.
func (s *Server) SetCommitHook(h CommitHook) {
	s.hookMu.Lock()
	s.hook = h
	s.hookMu.Unlock()
}

func (s *Server) commitHook() CommitHook {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.hook
}

// replicated reports whether the request is intra-fleet replication
// traffic, which must not re-enter the commit hook.
func replicated(r *http.Request) bool {
	return r.Header.Get(distrib.ReplicatedHeader) != ""
}

func (s *Server) gcGrace() time.Duration {
	switch {
	case s.GCGrace > 0:
		return s.GCGrace
	case s.GCGrace < 0:
		return 0
	}
	return DefaultGCGrace
}

// noteCommit pins d against GC for the grace window and sweeps pins
// that have aged out.
func (s *Server) noteCommit(d digest.Digest) {
	grace := s.gcGrace()
	if grace <= 0 {
		return
	}
	now := time.Now()
	s.recentMu.Lock()
	if s.recent == nil {
		s.recent = make(map[digest.Digest]time.Time)
	}
	cutoff := now.Add(-grace)
	for old, at := range s.recent {
		if at.Before(cutoff) {
			delete(s.recent, old)
		}
	}
	s.recent[d] = now
	s.recentMu.Unlock()
}

// recentlyCommitted reports whether d is still inside its GC grace
// window.
func (s *Server) recentlyCommitted(d digest.Digest) bool {
	grace := s.gcGrace()
	if grace <= 0 {
		return false
	}
	s.recentMu.Lock()
	at, ok := s.recent[d]
	s.recentMu.Unlock()
	return ok && time.Since(at) < grace
}

// SetUploadTTL bounds how long an idle upload session (and its spool
// file) survives; zero disables expiry. See distrib.UploadManager.
func (s *Server) SetUploadTTL(d time.Duration) { s.uploads.TTL = d }

// Fsck checks the mounted blob store's integrity (it must be
// disk-backed). With repair false the scan is read-only; with repair
// true corrupt blobs are quarantined, orphaned temp spools removed,
// and tags pointing at missing manifests swept (returned as the
// second value). Exposed on the CLI as comtainer-registry -fsck.
func (s *Server) Fsck(repair bool) (distrib.FsckReport, []string, error) {
	ds, ok := s.blobs.(*distrib.DiskStore)
	if !ok {
		return distrib.FsckReport{}, nil, fmt.Errorf("registry: fsck requires a disk-backed blob store")
	}
	var rep distrib.FsckReport
	var err error
	if repair {
		rep, err = ds.Repair()
		// The open-time Repair may already have healed crash damage;
		// fold its actions in so the operator sees what was fixed
		// rather than a clean scan of the post-repair store.
		open := ds.OpenReport()
		rep.Corrupt = append(open.Corrupt, rep.Corrupt...)
		rep.Misplaced = append(open.Misplaced, rep.Misplaced...)
		rep.OrphanTemps = append(open.OrphanTemps, rep.OrphanTemps...)
		rep.Quarantined += open.Quarantined
		rep.TempsSwept += open.TempsSwept
	} else {
		rep, err = ds.Fsck()
	}
	if err != nil {
		return rep, nil, err
	}
	var removed []string
	if repair {
		removed, err = distrib.SweepDanglingRefs(s.refs, s.blobs)
	}
	return rep, removed, err
}

// GC deletes every blob unreachable from the currently tagged
// manifests and manifest lists, returning the number dropped. Blobs
// committed within GCGrace survive even while unreferenced, so a
// sweep racing an in-flight push never collects a blob between its
// commit and the manifest's ref registration.
func (s *Server) GC() (int, error) {
	var roots []oci.Descriptor
	for _, desc := range s.refs.All() {
		roots = append(roots, desc)
	}
	return distrib.GCProtected(s.blobs, roots, s.recentlyCommitted)
}

// Handler returns the HTTP handler implementing the distribution API.
func (s *Server) Handler() http.Handler { return NewRouter(s, s.uploads) }

// CommitBlob ingests an upload into the local store, pins it against
// GC, and replicates it through the commit hook.
func (s *Server) CommitBlob(r *http.Request, _ string, want digest.Digest, ingest func(distrib.BlobSink) error) error {
	had := s.blobs.Has(want)
	if err := ingest(s.blobs); err != nil {
		return err
	}
	s.noteCommit(want)
	if hook := s.commitHook(); hook != nil && !replicated(r) {
		return s.replicationFailed(want, had, hook.BlobCommitted(r.Context(), want))
	}
	return nil
}

// replicationFailed turns a commit-hook error into a 503 and, when
// this request introduced blob d, rolls the local copy back — so a
// retried push re-uploads and re-replicates instead of
// short-circuiting on the HEAD dedup probe. A nil err stays nil.
func (s *Server) replicationFailed(d digest.Digest, had bool, err error) error {
	if err == nil {
		return nil
	}
	msg := "replication failed: " + err.Error()
	if !had {
		if derr := s.blobs.Delete(d); derr != nil {
			msg += " (rollback failed: " + derr.Error() + ")"
		}
	}
	return &StatusError{Code: http.StatusServiceUnavailable, Err: errors.New(msg)}
}

// ServeBlob answers blob GET and HEAD from the local store.
func (s *Server) ServeBlob(w http.ResponseWriter, r *http.Request, _ string, d digest.Digest) error {
	if !ServeBlob(w, r, s.blobs, d) {
		return &StatusError{Code: http.StatusNotFound, Err: errors.New("blob unknown")}
	}
	return nil
}

// ServeBlob answers a GET or HEAD of blob d from src with
// distribution-API headers, honoring single-range HTTP Range requests
// ("bytes=a-b" / "bytes=a-") with 206 responses; HEAD gets the same
// headers and no body. It reports false, having written nothing, when
// src cannot open d. Shared by the registry and the fleet proxy's
// cache.
func ServeBlob(w http.ResponseWriter, r *http.Request, src distrib.BlobSource, d digest.Digest) bool {
	body, size, err := src.Open(d)
	if err != nil {
		return false
	}
	defer body.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Docker-Content-Digest", string(d))
	w.Header().Set("Accept-Ranges", "bytes")
	start, n, status := int64(0), size, http.StatusOK
	if rng := r.Header.Get("Range"); rng != "" {
		first, last, ok := parseByteRange(rng, size)
		if !ok {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
			http.Error(w, "unsatisfiable range", http.StatusRequestedRangeNotSatisfiable)
			return true
		}
		start, n, status = first, last-first+1, http.StatusPartialContent
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", first, last, size))
	}
	head := r.Method == http.MethodHead
	if !head && start > 0 {
		if _, err := io.CopyN(io.Discard, body, start); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return true
		}
	}
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.WriteHeader(status)
	switch {
	case head:
	case status == http.StatusOK:
		_, _ = io.Copy(w, body) // keeps the source's WriterTo fast path
	default:
		_, _ = io.CopyN(w, body, n)
	}
	return true
}

// parseByteRange parses a single "bytes=a-b" or "bytes=a-" range
// against a blob of the given size, returning the inclusive bounds.
func parseByteRange(rng string, size int64) (start, end int64, ok bool) {
	spec, found := strings.CutPrefix(rng, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	from, to, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	start, err := strconv.ParseInt(from, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, false
	}
	if to == "" {
		return start, size - 1, true
	}
	end, err = strconv.ParseInt(to, 10, 64)
	if err != nil || end < start {
		return 0, 0, false
	}
	if end >= size {
		end = size - 1
	}
	return start, end, true
}

// HasBlob answers the referential check; fleet shards trust it to the
// proxy (see TrustReferences).
func (s *Server) HasBlob(_ context.Context, d digest.Digest) (bool, error) {
	return s.TrustReferences || s.blobs.Has(d), nil
}

// PutManifest stores the manifest blob, pins it, replicates it, and
// only then records a tag reference.
func (s *Server) PutManifest(r *http.Request, name, ref, mediaType string, body []byte) error {
	d := digest.FromBytes(body)
	had := s.blobs.Has(d)
	if _, _, err := s.blobs.Ingest(bytes.NewReader(body), d); err != nil {
		return err
	}
	s.noteCommit(d)
	// Replicate before registering the tag locally: an acknowledged
	// manifest must exist on the followers, and a follower promoted
	// after a mid-PUT leader crash may hold a ref the dead leader never
	// recorded — safe, since only acknowledged state must survive.
	if hook := s.commitHook(); hook != nil && !replicated(r) {
		if err := s.replicationFailed(d, had, hook.ManifestCommitted(r.Context(), name, ref, mediaType, body)); err != nil {
			return err
		}
	}
	if _, err := digest.Parse(ref); err == nil {
		return nil // pushed by digest: no tag to record
	}
	return s.refs.Set(name, ref, oci.Descriptor{MediaType: mediaType, Digest: d, Size: int64(len(body))})
}

// Manifest resolves a tag, or a digest the store holds, to the
// manifest document.
func (s *Server) Manifest(_ context.Context, name, ref string) ([]byte, digest.Digest, string, error) {
	desc, tagged := s.refs.Resolve(name, ref)
	if !tagged {
		d, err := digest.Parse(ref)
		if err != nil || !s.blobs.Has(d) {
			return nil, "", "", &StatusError{Code: http.StatusNotFound, Err: errors.New("manifest unknown")}
		}
		desc.Digest = d
	}
	b, err := distrib.ReadBlob(s.blobs, desc.Digest)
	if err != nil {
		return nil, "", "", fmt.Errorf("manifest blob missing: %w", err)
	}
	return b, desc.Digest, desc.MediaType, nil
}

// ListTags returns the tags of repository name.
func (s *Server) ListTags(_ context.Context, name string) ([]string, error) {
	return s.refs.Tags(name), nil
}

// Tags lists the known "name:tag" keys (for inspection).
func (s *Server) Tags() []string {
	all := s.refs.All()
	out := make([]string, 0, len(all))
	for k := range all {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- Client ---

// Client pushes and pulls images against a registry base URL, backed
// by the concurrent distrib.Client (parallel layer transfer, resumable
// chunked uploads, retry with backoff, cross-image blob dedup).
type Client struct {
	*distrib.Client
}

// NewClient returns a client for the registry at base.
func NewClient(base string) *Client {
	return &Client{Client: distrib.NewClient(base)}
}

// Push uploads the image tagged localTag in repo to the registry as
// name:tag — all referenced blobs first (in parallel, skipping blobs
// the registry already holds), then the manifest. Cancelling ctx
// aborts in-flight transfers and any retry backoff.
func (c *Client) Push(ctx context.Context, repo *oci.Repository, localTag, name, tag string) error {
	desc, err := repo.Resolve(localTag)
	if err != nil {
		return err
	}
	return c.PushImage(ctx, repo.Store, desc, name, tag)
}

// Pull downloads name:tag from the registry into repo under localTag,
// fetching missing layers in parallel. Cancelling ctx aborts in-flight
// transfers and any retry backoff.
func (c *Client) Pull(ctx context.Context, repo *oci.Repository, name, tag, localTag string) error {
	desc, err := c.PullImage(ctx, repo.Store, name, tag)
	if err != nil {
		return err
	}
	repo.Tag(localTag, desc)
	return nil
}
