package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comtainer/internal/core/ctxutil"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// TablePath is where the proxy serves its routing table.
const TablePath = "/fleet/v1/table"

// DefaultHeartbeatMisses is how many consecutive failed leader pings
// Watch tolerates before promoting a follower.
const DefaultHeartbeatMisses = 2

// Proxy is the stateless fleet front-end: a registry.Backend behind the
// shared distribution router, it routes every blob operation to the
// shard group owning the digest (with failover promotion when a leader
// dies mid-request), fans manifest and tag operations out to every
// shard, and optionally pull-through caches blobs in a bounded local
// store.
// Holding no state a restart can lose — upload sessions aside, which
// clients simply restart — any number of proxies can front the same
// shard fleet.
type Proxy struct {
	// HTTP carries proxy-to-shard traffic (defaults to
	// http.DefaultClient); tests inject fault transports here.
	HTTP *http.Client
	// FarmBackend, when set, is a scheduler base URL that /farm/v1
	// requests are forwarded to, so build-farm workers and executors
	// point their single endpoint at the proxy and get routed blob
	// traffic for free.
	FarmBackend string
	// RedirectReads answers uncached blob GETs with a 307 to the
	// owning shard leader instead of streaming through the proxy,
	// taking the proxy out of the read data path entirely.
	RedirectReads bool
	// HeartbeatMisses overrides DefaultHeartbeatMisses when > 0.
	HeartbeatMisses int

	ring    *Ring
	groups  map[string]*ShardGroup
	order   []string // sorted group names
	uploads *distrib.UploadManager

	cacheMu    sync.Mutex
	cache      distrib.Store
	cacheCap   int64
	cacheTotal int64
	cacheOrder []digest.Digest // LRU: oldest first
	cacheSize  map[digest.Digest]int64

	clientMu sync.Mutex
	clients  map[string]*distrib.Client

	cacheHits, cacheMisses atomic.Int64
}

// NewProxy returns a proxy over the given shard groups, building the
// ring from their names with vnodes virtual nodes per shard
// (DefaultVnodes when <= 0).
func NewProxy(groups []*ShardGroup, vnodes int) (*Proxy, error) {
	names := make([]string, 0, len(groups))
	byName := make(map[string]*ShardGroup, len(groups))
	for _, g := range groups {
		if _, dup := byName[g.Name()]; dup {
			return nil, fmt.Errorf("fleet: duplicate shard group %q", g.Name())
		}
		names = append(names, g.Name())
		byName[g.Name()] = g
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return &Proxy{
		ring:    ring,
		groups:  byName,
		order:   names,
		uploads: distrib.NewUploadManager(""),
	}, nil
}

// Ring exposes the proxy's routing ring.
func (p *Proxy) Ring() *Ring { return p.ring }

// SetCache mounts a bounded pull-through cache: blobs fetched from
// shards are kept in store and evicted least-recently-used once the
// total exceeds capBytes (0 = unbounded). Existing store content is
// adopted into the accounting, so a disk-backed cache survives proxy
// restarts.
func (p *Proxy) SetCache(store distrib.Store, capBytes int64) error {
	// Size the existing contents before taking the lock: adoption is
	// disk I/O and must not run inside the critical section.
	var order []digest.Digest
	sizes := make(map[digest.Digest]int64)
	var total int64
	if store != nil {
		for _, d := range store.Digests() {
			rc, size, err := store.Open(d)
			if err != nil {
				return fmt.Errorf("fleet: adopting cache blob %s: %w", d.Short(), err)
			}
			rc.Close()
			order = append(order, d)
			sizes[d] = size
			total += size
		}
	}
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	p.cache = store
	p.cacheCap = capBytes
	p.cacheTotal = total
	p.cacheOrder = order
	p.cacheSize = sizes
	if store != nil {
		p.evictLocked()
	}
	return nil
}

// CacheStats returns pull-through cache hit/miss counters.
func (p *Proxy) CacheStats() (hits, misses int64) {
	return p.cacheHits.Load(), p.cacheMisses.Load()
}

// cacheHas reports (and LRU-touches) a cached blob.
func (p *Proxy) cacheHas(d digest.Digest) bool {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	if p.cache == nil || !p.cache.Has(d) {
		return false
	}
	for i, o := range p.cacheOrder {
		if o == d {
			p.cacheOrder = append(append(p.cacheOrder[:i:i], p.cacheOrder[i+1:]...), d)
			break
		}
	}
	return true
}

// cacheAdd copies blob d from src into the cache, evicting LRU
// entries beyond capacity. Best-effort: a cache failure never fails
// the request that triggered it. The copy runs outside the lock —
// ingestion is content-addressed, so a concurrent add of the same
// digest is harmless and noteFetched deduplicates the accounting.
func (p *Proxy) cacheAdd(src distrib.BlobSource, d digest.Digest) {
	store := p.cacheStore()
	if store == nil || store.Has(d) {
		return
	}
	rc, _, err := src.Open(d)
	if err != nil {
		return
	}
	_, _, err = store.Ingest(rc, d)
	rc.Close()
	if err != nil {
		return
	}
	p.noteFetched(d)
}

// evictLocked drops least-recently-used entries until the cache fits
// its capacity. Callers hold cacheMu.
func (p *Proxy) evictLocked() {
	if p.cacheCap <= 0 {
		return
	}
	for p.cacheTotal > p.cacheCap && len(p.cacheOrder) > 0 {
		victim := p.cacheOrder[0]
		p.cacheOrder = p.cacheOrder[1:]
		if err := p.cache.Delete(victim); err != nil {
			return
		}
		p.cacheTotal -= p.cacheSize[victim]
		delete(p.cacheSize, victim)
	}
}

// groupFor returns the shard group owning blob d.
func (p *Proxy) groupFor(d digest.Digest) *ShardGroup {
	return p.groups[p.ring.Owner(d)]
}

// groupsFrom returns every group, starting at the owner of key —
// the deterministic primary for fanned-out resources (manifests,
// tags), with the rest as fallbacks.
func (p *Proxy) groupsFrom(key string) []*ShardGroup {
	owner := p.ring.OwnerKey(key)
	out := make([]*ShardGroup, 0, len(p.order))
	out = append(out, p.groups[owner])
	for _, n := range p.order {
		if n != owner {
			out = append(out, p.groups[n])
		}
	}
	return out
}

func (p *Proxy) httpClient() *http.Client {
	if p.HTTP != nil {
		return p.HTTP
	}
	return http.DefaultClient
}

// clientFor returns a (cached) distrib client for one replica. Low
// retry budget: failover to the next replica beats retrying a dead
// one.
func (p *Proxy) clientFor(base string) *distrib.Client {
	p.clientMu.Lock()
	defer p.clientMu.Unlock()
	if c, ok := p.clients[base]; ok {
		return c
	}
	c := distrib.NewClient(base)
	c.HTTP = p.httpClient()
	c.Retries = 1
	if p.clients == nil {
		p.clients = make(map[string]*distrib.Client)
	}
	p.clients[base] = c
	return c
}

// withGroup runs fn against the group's current leader, promoting
// the next replica and retrying on failure until every replica has
// been tried once. fn must be idempotent (all fleet writes are:
// content-addressed blobs and same-bytes manifest PUTs).
func (p *Proxy) withGroup(g *ShardGroup, fn func(base string) error) error {
	leader := g.Leader()
	var err error
	for range g.Replicas() {
		err = fn(leader)
		if err == nil || distrib.IsNotFound(err) {
			return err
		}
		leader = g.promoteFrom(leader)
	}
	return fmt.Errorf("fleet: shard %s has no usable replica: %w", g.Name(), err)
}

// Handler returns the proxy's HTTP surface: the /v2/ distribution
// API, the routing table, and (when configured) the forwarded farm
// control plane.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v2/", registry.NewRouter(p, p.uploads))
	mux.HandleFunc(TablePath, p.serveTable)
	if p.FarmBackend != "" {
		mux.HandleFunc("/farm/", p.forwardFarm)
	}
	return mux
}

// --- the registry.Backend the shared router drives ---

// ServeBlob answers blob GET and HEAD: from the pull-through cache when
// it holds d; otherwise a GET is redirected to the owning leader
// (RedirectReads) or pulled through the cache, and anything left is
// relayed to the owning group.
func (p *Proxy) ServeBlob(w http.ResponseWriter, r *http.Request, name string, d digest.Digest) error {
	// The hit/miss counters track blob reads; a HEAD is an existence
	// probe and never fills the cache.
	get := r.Method == http.MethodGet
	if p.cacheHas(d) && registry.ServeBlob(w, r, p.cacheStore(), d) {
		if get {
			p.cacheHits.Add(1)
		}
		return nil
	}
	g := p.groupFor(d)
	path := "/v2/" + name + "/blobs/" + string(d)
	if get {
		p.cacheMisses.Add(1)
		if p.RedirectReads {
			http.Redirect(w, r, g.Leader()+path, http.StatusTemporaryRedirect)
			return nil
		}
		if staging := p.cacheStore(); staging != nil {
			// Pull-through: fetch into the cache (verified), serve from it.
			err := p.withGroup(g, func(base string) error {
				return p.clientFor(base).FetchBlob(r.Context(), staging, name, d)
			})
			if err != nil {
				return shardError(err)
			}
			p.noteFetched(d)
			if registry.ServeBlob(w, r, staging, d) {
				return nil
			}
		}
	}
	return p.forwardBlob(w, r, g, path)
}

// cacheStore returns the mounted cache store (nil when none).
func (p *Proxy) cacheStore() distrib.Store {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	return p.cache
}

// noteFetched records a blob ingested directly into the cache store
// (by FetchBlob or cacheAdd), folding it into the LRU accounting. The
// size probe happens before the lock; a blob another goroutine already
// accounted for (or evicted meanwhile) is skipped by the known-check.
func (p *Proxy) noteFetched(d digest.Digest) {
	store := p.cacheStore()
	if store == nil {
		return
	}
	rc, size, err := store.Open(d)
	if err != nil {
		return
	}
	rc.Close()
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	if p.cache == nil {
		return
	}
	if _, known := p.cacheSize[d]; known {
		return
	}
	p.cacheOrder = append(p.cacheOrder, d)
	p.cacheSize[d] = size
	p.cacheTotal += size
	p.evictLocked()
}

// forwardBlob relays a blob GET/HEAD to the owning group with
// failover, streaming the response through.
func (p *Proxy) forwardBlob(w http.ResponseWriter, r *http.Request, g *ShardGroup, path string) error {
	err := p.withGroup(g, func(base string) error {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, base+path, nil)
		if err != nil {
			return err
		}
		if rng := r.Header.Get("Range"); rng != "" {
			req.Header.Set("Range", rng)
		}
		resp, err := p.httpClient().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("fleet: %s %s: status %s: %s", r.Method, base+path, resp.Status, strings.TrimSpace(string(msg)))
		}
		relayResponse(w, resp)
		return nil
	})
	return shardError(err)
}

// relayResponse copies a shard response (status, distribution
// headers, body) to the client verbatim.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{
		"Content-Type", "Content-Length", "Content-Range",
		"Docker-Content-Digest", "Accept-Ranges", "Location",
		"Docker-Upload-UUID", "Range",
	} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// shardError tags a routed-request failure for the router: a
// definitive 404 from the shard passes through as 404, anything else
// is a 502 the client's retry logic treats as transient.
func shardError(err error) error {
	if err == nil || distrib.IsNotFound(err) {
		return err
	}
	return &registry.StatusError{Code: http.StatusBadGateway, Err: err}
}

// CommitBlob stages an upload at the proxy, then pushes the complete
// verified blob to the owning shard: the client's 201 is issued only
// after the shard leader (and, through its replication hook, every
// follower) has acknowledged durably.
func (p *Proxy) CommitBlob(r *http.Request, name string, want digest.Digest, ingest func(distrib.BlobSink) error) error {
	staging := oci.NewStore()
	if err := ingest(staging); err != nil {
		return err
	}
	return shardError(p.pushToShard(r.Context(), staging, name, want))
}

// pushToShard pushes a staged blob to its owning shard group (with
// failover) and warms the pull-through cache with it.
func (p *Proxy) pushToShard(ctx context.Context, staging distrib.BlobSource, name string, d digest.Digest) error {
	g := p.groupFor(d)
	err := p.withGroup(g, func(base string) error {
		return p.clientFor(base).PushBlob(ctx, name, staging, d)
	})
	if err != nil {
		return err
	}
	p.cacheAdd(staging, d)
	return nil
}

// --- manifests and tags ---

// HasBlob answers the fleet-wide referential check: the cache or the
// owning shard group holds d.
func (p *Proxy) HasBlob(ctx context.Context, d digest.Digest) (bool, error) {
	if p.cacheHas(d) {
		return true, nil
	}
	var found bool
	err := p.withGroup(p.groupFor(d), func(base string) error {
		ok, err := p.clientFor(base).HasBlob(ctx, "fleet", d)
		found = ok
		return err
	})
	return found, shardError(err)
}

// PutManifest fans a validated manifest out to every shard group, so
// any shard can resolve tags and anchor its own GC roots. Acknowledged
// only once every group holds it.
func (p *Proxy) PutManifest(r *http.Request, name, ref, mediaType string, body []byte) error {
	for _, gname := range p.order {
		err := p.withGroup(p.groups[gname], func(base string) error {
			return putManifestTo(r.Context(), p.httpClient(), base, name, ref, mediaType, body)
		})
		if err != nil {
			return shardError(err)
		}
	}
	return nil
}

// Manifest fetches name:ref from the first group that answers.
func (p *Proxy) Manifest(ctx context.Context, name, ref string) ([]byte, digest.Digest, string, error) {
	var body []byte
	var d digest.Digest
	var mediaType string
	err := p.anyGroup(name+":"+ref, func(c *distrib.Client) error {
		var err error
		body, d, mediaType, err = c.FetchManifest(ctx, name, ref)
		return err
	})
	return body, d, mediaType, err
}

// ListTags lists the tags of name from the first group that answers.
func (p *Proxy) ListTags(ctx context.Context, name string) ([]string, error) {
	var tags []string
	err := p.anyGroup(name, func(c *distrib.Client) error {
		var err error
		tags, err = c.ListTags(ctx, name)
		return err
	})
	return tags, err
}

// anyGroup reads fanned-out metadata (manifests, tags), trying each
// group in turn from the owner of key until one answers. Every group
// holds every manifest, so the first definitive 404 is the fleet's
// answer: it passes through without promoting a replica or asking
// another group.
func (p *Proxy) anyGroup(key string, fn func(*distrib.Client) error) error {
	var err error
	for _, g := range p.groupsFrom(key) {
		err = p.withGroup(g, func(base string) error { return fn(p.clientFor(base)) })
		if err == nil || distrib.IsNotFound(err) {
			break
		}
	}
	return shardError(err)
}

// --- farm forwarding ---

// forwardFarm relays /farm/v1 control-plane requests to the
// configured scheduler so workers and executors need only the proxy
// URL.
func (p *Proxy) forwardFarm(w http.ResponseWriter, r *http.Request) {
	url := strings.TrimRight(p.FarmBackend, "/") + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := p.httpClient().Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// --- routing table ---

// Table is the proxy's shareable routing view: the ring membership
// (stable encoding) plus each shard's current leader. A fleet-aware
// distrib.Client resolves blob endpoints from it and talks to shards
// directly, leaving only manifest fan-out on the proxy.
type Table struct {
	Vnodes  int               `json:"vnodes"`
	Shards  []string          `json:"shards"`
	Leaders map[string]string `json:"leaders"`
}

// Resolver compiles the table into a distrib.Client Resolver.
func (t Table) Resolver() (func(digest.Digest) (string, bool), error) {
	ring, err := NewRing(t.Shards, t.Vnodes)
	if err != nil {
		return nil, err
	}
	leaders := make(map[string]string, len(t.Leaders))
	for k, v := range t.Leaders {
		leaders[k] = v
	}
	return func(d digest.Digest) (string, bool) {
		addr, ok := leaders[ring.Owner(d)]
		return addr, ok
	}, nil
}

// Table snapshots the proxy's current routing table.
func (p *Proxy) Table() Table {
	t := Table{Vnodes: p.ring.Vnodes(), Shards: p.ring.Shards(), Leaders: make(map[string]string, len(p.groups))}
	for name, g := range p.groups {
		t.Leaders[name] = g.Leader()
	}
	return t
}

func (p *Proxy) serveTable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "unsupported operation", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p.Table())
}

// FetchTable retrieves the routing table from a proxy at base.
func FetchTable(ctx context.Context, hc *http.Client, base string) (Table, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+TablePath, nil)
	if err != nil {
		return Table{}, err
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Table{}, fmt.Errorf("fleet: fetching table: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Table{}, fmt.Errorf("fleet: fetching table: status %s", resp.Status)
	}
	var t Table
	if err := json.NewDecoder(resp.Body).Decode(&t); err != nil {
		return Table{}, fmt.Errorf("fleet: decoding table: %w", err)
	}
	return t, nil
}

// --- heartbeat watch ---

// Watch pings every shard leader at interval until ctx is done,
// promoting a group's next replica after HeartbeatMisses consecutive
// failures — failover for idle fleets, complementing the immediate
// request-path promotion in withGroup.
func (p *Proxy) Watch(ctx context.Context, interval time.Duration) {
	for {
		if err := ctxutil.Sleep(ctx, interval); err != nil {
			return
		}
		p.CheckLeaders(ctx, interval)
	}
}

// CheckLeaders performs one heartbeat round: each group's current
// leader is pinged (bounded by timeout) and promoted past after
// HeartbeatMisses consecutive losses.
func (p *Proxy) CheckLeaders(ctx context.Context, timeout time.Duration) {
	misses := p.HeartbeatMisses
	if misses <= 0 {
		misses = DefaultHeartbeatMisses
	}
	for _, name := range p.order {
		g := p.groups[name]
		leader := g.Leader()
		pctx, cancel := context.WithTimeout(ctx, timeout)
		err := p.clientFor(leader).Ping(pctx)
		cancel()
		if err == nil {
			g.noteBeat(leader)
			continue
		}
		if g.noteMiss(leader) >= misses {
			g.promoteFrom(leader)
		}
	}
}
