package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/core"
	"comtainer/internal/core/cache"
	"comtainer/internal/digest"
	"comtainer/internal/fleet"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
	"comtainer/internal/workloads"
)

// Concurrency inside the system stays within the 2 CPUs the benchmark
// is sized for.
const (
	rebuildWorkers = 2
	clientWorkers  = 2
	farmWorkers    = 2 // single-slot farm workers per system profile
)

// execDelay is the modeled compile cost of one farm action.
const execDelay = 10 * time.Millisecond

// proxyCacheBytes caps the fleet proxy's pull-through cache below the
// working set of the pulled images, so pulls both hit and miss it.
const proxyCacheBytes = 1 << 20

// image is one user-built version of an app for one ISA.
type image struct {
	user    *core.UserSide
	distTag string // the +coM image is cache.ExtendedTag(distTag)
}

// reference is what the plain local path produces for one triple.
type reference struct {
	rebuilt  digest.Digest // +coMre manifest digest
	seconds  float64       // modeled run time of the adapted image
	original float64       // modeled run time of the original image
	ideal    time.Duration // farm ideal makespan of the rebuild DAG
}

// mismatch describes an adaptation that did not reproduce the
// reference.
func (ref reference) mismatch(rebuilt digest.Digest, seconds float64) error {
	return fmt.Errorf("got +coMre %s running %.6gs, reference %s running %.6gs",
		rebuilt.Short(), seconds, ref.rebuilt.Short(), ref.seconds)
}

// bench is one set-up instance of a workload.
type bench struct {
	workload string
	gen      *generator
	tr       *tracer
	work     string // scratch directory inside the checkout

	users  map[string]*core.UserSide // per ISA
	images map[string]image          // per system/app: the setup version
	refs   map[string]reference      // per triple
	warm   *actioncache.DiskCache    // adapt-warm's shared cache
	cold   string                    // adapt-cold's per-op caches live under it
	ff     *fleetFarm                // fleet-farm's servers
	orig   map[string]float64        // per system/app: original run seconds
}

func imageKey(sys *sysprofile.System, app *workloads.App) string { return sys.Name + "/" + app.Name }

// setup builds everything a workload's ops need: the original and
// extended image of every app on both ISAs from seeded input decks,
// the reference output of all 44 triples through the plain local
// path, and the workload's own state (the filled action cache, or the
// running fleet and farm).
func setup(workload string, seed int64, tr *tracer, work string) (*bench, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		workload: workload,
		gen:      newGenerator(seed),
		tr:       tr,
		work:     work,
		users:    map[string]*core.UserSide{},
		images:   map[string]image{},
		refs:     map[string]reference{},
		orig:     map[string]float64{},
	}
	for _, sys := range systems() {
		user, err := core.NewUserSide(sys.ISA)
		if err != nil {
			return nil, err
		}
		b.users[sys.ISA] = user
		for _, app := range workloads.Apps() {
			img, err := b.build(sys, app, 0, true)
			if err != nil {
				return nil, err
			}
			orig, err := b.build(sys, app, 0, false)
			if err != nil {
				return nil, err
			}
			site, err := b.populate(sys)
			if err != nil {
				return nil, err
			}
			if err := site.Pull(user.Repo, orig.distTag); err != nil {
				return nil, err
			}
			run, err := site.Run(orig.distTag, triple{sys: sys, app: app}.ref(), runNodes)
			if err != nil {
				return nil, fmt.Errorf("running original %s on %s: %w", app.Name, sys.Name, err)
			}
			b.images[imageKey(sys, app)] = img
			b.orig[imageKey(sys, app)] = run.Seconds
		}
	}
	for _, t := range b.gen.triples {
		ref, err := b.reference(t, b.images[imageKey(t.sys, t.app)])
		if err != nil {
			return nil, err
		}
		b.refs[t.String()] = ref
	}
	switch workload {
	case "adapt-warm":
		if err := b.fillWarm(); err != nil {
			return nil, err
		}
	case "fleet-farm":
		ff, err := startFleetFarm(tr, work)
		if err != nil {
			return nil, err
		}
		b.ff = ff
		if err := b.seedFleet(); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// close stops the workload's servers and goroutines.
func (b *bench) close() {
	if b.ff != nil {
		b.ff.close()
		b.ff = nil
	}
}

// build builds version v of app on the user side of sys's ISA, from
// the version's seeded input deck: the extended (+coM) image, or the
// original one.
func (b *bench) build(sys *sysprofile.System, app *workloads.App, v int, extended bool) (image, error) {
	user := b.users[sys.ISA]
	name := fmt.Sprintf("%s-v%d", app.Name, v)
	if !extended {
		name = "orig-" + name
	}
	res, err := user.BuildContainerfile(name, containerfile(app, sys.ISA, extended),
		buildContext(app, sys.ISA, b.gen.deck(sys.ISA, app, v)), extended, cache.Options{})
	if err != nil {
		return image{}, err
	}
	return image{user: user, distTag: res.DistTag}, nil
}

// reference adapts img for t through the plain local path (no action
// cache, no farm) and records what every other path must reproduce.
func (b *bench) reference(t triple, img image) (reference, error) {
	site, err := b.populate(t.sys)
	if err != nil {
		return reference{}, err
	}
	rebuilt, seconds, err := b.adaptLocal(site, img, t, &sample{})
	if err != nil {
		return reference{}, fmt.Errorf("reference adaptation of %s: %w", t, err)
	}
	ext, err := site.Repo.LoadByTag(cache.ExtendedTag(img.distTag))
	if err != nil {
		return reference{}, err
	}
	models, _, err := cache.Read(ext)
	if err != nil {
		return reference{}, err
	}
	dag, err := rebuildDAG(models.Graph)
	if err != nil {
		return reference{}, err
	}
	ideal, err := idealMakespan(dag, farmWorkers, execDelay)
	if err != nil {
		return reference{}, err
	}
	return reference{
		rebuilt:  rebuilt,
		seconds:  seconds,
		original: b.orig[imageKey(t.sys, t.app)],
		ideal:    ideal,
	}, nil
}

// fillWarm fills adapt-warm's shared on-disk action cache with every
// triple's rebuild, checking each against its reference.
func (b *bench) fillWarm() error {
	disk, err := actioncache.NewDiskCache(filepath.Join(b.work, "warm-cache"), 0)
	if err != nil {
		return err
	}
	for _, t := range b.gen.triples {
		site, err := b.populate(t.sys)
		if err != nil {
			return err
		}
		site.ActionMemo = actioncache.NewMemoizer(disk)
		rebuilt, seconds, err := b.adaptLocal(site, b.images[imageKey(t.sys, t.app)], t, &sample{})
		if err != nil {
			return fmt.Errorf("filling the action cache with %s: %w", t, err)
		}
		if ref := b.refs[t.String()]; rebuilt != ref.rebuilt || seconds != ref.seconds {
			return fmt.Errorf("cache fill of %s: %w", t, ref.mismatch(rebuilt, seconds))
		}
	}
	b.warm = disk
	return nil
}

// seedFleet pushes every setup image through the proxy, so the fleet
// holds the base layers that later versions share.
func (b *bench) seedFleet() error {
	c := b.newClient(roleOther)
	for _, sys := range systems() {
		for _, app := range workloads.Apps() {
			img := b.images[imageKey(sys, app)]
			if err := c.Push(context.Background(), img.user.Repo, cache.ExtendedTag(img.distTag), app.Name, "seed-"+sys.Name); err != nil {
				return fmt.Errorf("seeding the fleet with %s on %s: %w", app.Name, sys.Name, err)
			}
		}
	}
	return nil
}

// fleetFarm is the in-process registry fleet and build farm: three
// shard groups of a leader and a follower replicated through on-disk
// write logs, a routing proxy with a capped pull-through cache, and a
// scheduler reached through the proxy with single-slot workers for
// each system profile.
type fleetFarm struct {
	url     string // the proxy, which also relays /farm/v1
	proxy   *fleet.Proxy
	servers []*httptest.Server
	logs    []*fleet.WriteLog
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func startFleetFarm(tr *tracer, work string) (_ *fleetFarm, err error) {
	ff := &fleetFarm{}
	defer func() {
		if err != nil {
			ff.close()
		}
	}()
	var groups []*fleet.ShardGroup
	for i := 0; i < 3; i++ {
		leader, follower := registry.NewServer(), registry.NewServer()
		leader.TrustReferences, follower.TrustReferences = true, true
		fts := httptest.NewServer(tr.serve(kindFollower, follower.Handler()))
		ff.servers = append(ff.servers, fts)
		log, err := fleet.NewWriteLog(filepath.Join(work, fmt.Sprintf("shard%d.log", i)))
		if err != nil {
			return nil, err
		}
		ff.logs = append(ff.logs, log)
		leader.SetCommitHook(fleet.NewReplicator(leader.Blobs(), log, fts.URL))
		lts := httptest.NewServer(tr.serve(kindShard, leader.Handler()))
		ff.servers = append(ff.servers, lts)
		g, err := fleet.NewShardGroup(fmt.Sprintf("shard%d", i), lts.URL, fts.URL)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	sched := remoteexec.NewScheduler()
	sts := httptest.NewServer(tr.farm(sched.Handler()))
	ff.servers = append(ff.servers, sts)
	p, err := fleet.NewProxy(groups, 0)
	if err != nil {
		return nil, err
	}
	if err := p.SetCache(oci.NewStore(), proxyCacheBytes); err != nil {
		return nil, err
	}
	p.FarmBackend = sts.URL
	pts := httptest.NewServer(tr.serve(kindProxy, p.Handler()))
	ff.servers = append(ff.servers, pts)
	ff.url, ff.proxy = pts.URL, p

	ctx, cancel := context.WithCancel(context.Background())
	ff.cancel = cancel
	for _, sys := range systems() {
		for i := 0; i < farmWorkers; i++ {
			w := remoteexec.NewWorker(ff.url, sys, sys.Toolchains)
			w.Name = fmt.Sprintf("%s-%d", sys.Name, i)
			w.ExecDelay = execDelay
			w.Client.HTTP = tr.client(roleFarm)
			w.Client.Workers = clientWorkers
			ff.wg.Add(1)
			go func() {
				defer ff.wg.Done()
				_ = w.Run(ctx) // returns ctx.Err() once the benchmark stops it
			}()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(sched.Status().Workers) < 2*farmWorkers {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("farm workers did not register within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ff, nil
}

func (ff *fleetFarm) close() {
	if ff.cancel != nil {
		ff.cancel()
	}
	ff.wg.Wait()
	for _, s := range ff.servers {
		s.Close()
	}
	for _, l := range ff.logs {
		l.Close()
	}
}
