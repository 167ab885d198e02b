package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/core"
	"comtainer/internal/core/cache"
	"comtainer/internal/digest"
	"comtainer/internal/registry"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
)

// sample is one completed op's measurements.
type sample struct {
	adapt, rebuild, push time.Duration
	speedup              float64 // original over adapted modeled run time
	ideal                time.Duration
	execs                int64 // toolchain commands executed (action-cache misses)
	remote, local        int64 // farm routing of those commands (fleet-farm)
}

// phase is one measured stretch of ops.
type phase struct {
	samples           []sample
	attempted, failed int
	elapsed           time.Duration
	allocBytes        uint64
}

// clients are fleet-farm's HTTP clients, one per role.
type clients struct {
	push, pull, back *registry.Client
}

func (b *bench) newClient(role int) *registry.Client {
	c := registry.NewClient(b.ff.url)
	c.HTTP = b.tr.client(role)
	c.Workers = clientWorkers
	return c
}

// measure runs ops k = first, first+1, ... and returns the phase and
// the checks verify must run once the clock has stopped (fleet-farm
// ops are compared with the plain local path then). It stops at the
// first block boundary (a multiple of 44 ops, so every triple weighs
// the same in every run whatever the seed's order) after d has elapsed
// and minOps ops have completed, or at 3d. With d = 0 it runs one
// block.
func (b *bench) measure(d time.Duration, minOps, first int) (phase, []func() error) {
	var cl clients
	if b.ff != nil {
		cl = clients{b.newClient(rolePush), b.newClient(rolePull), b.newClient(roleOther)}
	}
	var ph phase
	var checks []func() error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	k := first
	done := func() bool {
		t := time.Since(start)
		if k != first && k%len(b.gen.triples) == 0 && t >= d && len(ph.samples) >= minOps {
			return true
		}
		return d > 0 && t >= 3*d
	}
	for ; !done(); k++ {
		t := b.gen.next(k)
		endOp := b.tr.beginOp(t.String())
		var s sample
		var check func() error
		var err error
		if b.ff != nil {
			s, check, err = b.fleetOp(k, t, cl)
		} else {
			s, err = b.adaptOp(k, t)
		}
		endOp()
		if err := ph.record(b.workload, s, err); err != nil {
			fmt.Fprintf(os.Stderr, "op %d (%s) failed: %v\n", k, t, err)
			continue
		}
		checks = append(checks, check)
	}
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	return ph, checks
}

// record counts one op's outcome. An error, or a sample whose rebuild
// did not take its workload's path, is a failed op: digests cannot
// tell these paths apart, because a warm replay, a local fallback and
// a farm execution all produce the same bytes.
func (ph *phase) record(workload string, s sample, err error) error {
	ph.attempted++
	if err == nil {
		err = checkPath(workload, s)
	}
	if err != nil {
		ph.failed++
		return err
	}
	ph.samples = append(ph.samples, s)
	return nil
}

// checkPath checks that an op's rebuild took its workload's path:
// adapt-cold executes commands, adapt-warm replays every one from the
// action cache, and fleet-farm runs every one on the farm with no
// local fallback.
func checkPath(workload string, s sample) error {
	switch workload {
	case "adapt-cold":
		if s.execs == 0 {
			return fmt.Errorf("cold rebuild executed no commands")
		}
	case "adapt-warm":
		if s.execs != 0 {
			return fmt.Errorf("warm rebuild executed %d commands, want every one replayed from the action cache", s.execs)
		}
	case "fleet-farm":
		if s.remote == 0 || s.local != 0 {
			return fmt.Errorf("farm rebuild ran %d commands remotely and %d locally, want all remote", s.remote, s.local)
		}
	}
	return nil
}

// verify runs the deferred checks of a phase's completed ops; an op
// whose check fails moves from the samples to the failures.
func (b *bench) verify(ph *phase, checks []func() error) {
	kept := ph.samples[:0]
	for i, check := range checks {
		if check != nil {
			if err := check(); err != nil {
				ph.failed++
				fmt.Fprintln(os.Stderr, "check failed:", err)
				continue
			}
		}
		kept = append(kept, ph.samples[i])
	}
	ph.samples = kept
}

// populate creates a fresh system side (its base images populated from
// the system profile), noting its allocation in a traced run.
func (b *bench) populate(sys *sysprofile.System) (*core.SystemSide, error) {
	var site *core.SystemSide
	err := b.tr.step("sysprofile.populate", phaseOther, func() (err error) {
		done := b.tr.allocs(allocPopulate)
		site, err = core.NewSystemSide(sys)
		done()
		return err
	})
	if err != nil {
		return nil, err
	}
	site.RebuildWorkers = rebuildWorkers
	return site, nil
}

// adaptOp is one adapt-cold or adapt-warm op: a fresh site pulls the
// triple's image, rebuilds it locally through an on-disk action cache
// (fresh and empty for adapt-cold, the shared filled one for
// adapt-warm), redirects and runs it.
func (b *bench) adaptOp(k int, t triple) (sample, error) {
	img := b.images[imageKey(t.sys, t.app)]
	ref := b.refs[t.String()]
	disk := b.warm
	if disk == nil {
		dir, err := os.MkdirTemp(coldDir, "op-")
		if err != nil {
			return sample{}, err
		}
		if disk, err = actioncache.NewDiskCache(dir, 0); err != nil {
			return sample{}, err
		}
	}
	site, err := b.populate(t.sys)
	if err != nil {
		return sample{}, err
	}
	memo := actioncache.NewMemoizer(b.tr.wrapCache(disk))
	site.ActionMemo = memo

	var s sample
	rebuilt, seconds, err := b.adaptLocal(site, img, t, &s)
	if err != nil {
		return sample{}, err
	}
	if rebuilt != ref.rebuilt || seconds != ref.seconds {
		return sample{}, ref.mismatch(rebuilt, seconds)
	}
	s.speedup = ref.original / seconds
	s.ideal = ref.ideal
	s.execs = memo.Stats().Misses
	return s, nil
}

// adaptLocal pulls img's +coM image from the user's repository into
// site, rebuilds it for t, redirects it and runs it, returning the
// +coMre digest and the modeled run time. The adaptation, from the
// start of the pull until the image is runnable, is timed into s.
func (b *bench) adaptLocal(site *core.SystemSide, img image, t triple, s *sample) (digest.Digest, float64, error) {
	start := time.Now()
	err := b.tr.step("oci.pull", phaseOther, func() error {
		return site.Pull(img.user.Repo, cache.ExtendedTag(img.distTag))
	})
	if err != nil {
		return "", 0, fmt.Errorf("pull: %w", err)
	}
	rebuilt, err := b.rebuild(site, img.distTag, t, s)
	if err != nil {
		return "", 0, err
	}
	if err := b.redirect(site, img.distTag); err != nil {
		return "", 0, err
	}
	s.adapt = time.Since(start)
	seconds, err := b.run(site, img.distTag, t)
	if err != nil {
		return "", 0, err
	}
	return rebuilt, seconds, nil
}

// rebuild runs the site's rebuild of distTag for t, timing it into s.
func (b *bench) rebuild(site *core.SystemSide, distTag string, t triple, s *sample) (rebuilt digest.Digest, err error) {
	start := time.Now()
	err = b.tr.step("backend.rebuild", phaseOther, func() error {
		done := b.tr.allocs(allocRebuild)
		defer done()
		desc, _, err := site.Rebuild(distTag, t.adapters(), nil)
		rebuilt = desc.Digest
		return err
	})
	s.rebuild = time.Since(start)
	if err != nil {
		return "", fmt.Errorf("rebuild: %w", err)
	}
	return rebuilt, nil
}

// redirect runs the site's redirect of distTag.
func (b *bench) redirect(site *core.SystemSide, distTag string) error {
	err := b.tr.step("backend.redirect", phaseOther, func() error {
		_, err := site.Redirect(distTag)
		return err
	})
	if err != nil {
		return fmt.Errorf("redirect: %w", err)
	}
	return nil
}

// run executes the site's redirected image and returns its modeled
// run time.
func (b *bench) run(site *core.SystemSide, distTag string, t triple) (float64, error) {
	var seconds float64
	err := b.tr.step("chrun.run", phaseOther, func() error {
		res, err := site.Run(distTag+".redirect", t.ref(), runNodes)
		seconds = res.Seconds
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("run: %w", err)
	}
	return seconds, nil
}

// fleetOp is one fleet-farm op: the user builds a new version of the
// triple's app (a fresh seeded input deck) and pushes it through the
// proxy; a fresh site pulls it, rebuilds it on the farm, redirects,
// pushes the +coMre image back and runs it. The returned check
// compares the result with the plain local path's after the clock
// stops.
func (b *bench) fleetOp(k int, t triple, cl clients) (sample, func() error, error) {
	ctx := context.Background()
	var img image
	err := b.tr.step("user.build", phaseOther, func() (err error) {
		img, err = b.build(t.sys, t.app, k+1, true)
		return err
	})
	if err != nil {
		return sample{}, nil, fmt.Errorf("user build: %w", err)
	}
	extTag := cache.ExtendedTag(img.distTag)
	pushed, err := img.user.Repo.Resolve(extTag)
	if err != nil {
		return sample{}, nil, err
	}
	tag := fmt.Sprintf("v%d-%s", k+1, t.sys.Name)

	var s sample
	start := time.Now()
	err = b.tr.step("distrib.push", phasePush, func() error {
		return cl.push.Push(ctx, img.user.Repo, extTag, t.app.Name, tag)
	})
	if err != nil {
		return sample{}, nil, fmt.Errorf("push: %w", err)
	}
	s.push = time.Since(start)

	site, err := b.populate(t.sys)
	if err != nil {
		return sample{}, nil, err
	}
	exec := remoteexec.NewExecutor(b.ff.url, t.sys, t.sys.Toolchains)
	exec.Client.HTTP = b.tr.client(roleFarm)
	exec.Client.Workers = clientWorkers
	site.RemoteExec = exec
	memo := actioncache.NewMemoizer(nil)
	site.ActionMemo = memo

	start = time.Now()
	err = b.tr.step("oci.pull", phaseOther, func() error {
		return cl.pull.Pull(ctx, site.Repo, t.app.Name, tag, extTag)
	})
	if err != nil {
		return sample{}, nil, fmt.Errorf("pull: %w", err)
	}
	if got, err := site.Repo.Resolve(extTag); err != nil || got.Digest != pushed.Digest {
		return sample{}, nil, fmt.Errorf("pulled manifest %s, pushed %s (%v)", got.Digest.Short(), pushed.Digest.Short(), err)
	}
	rebuilt, err := b.rebuild(site, img.distTag, t, &s)
	if err != nil {
		return sample{}, nil, err
	}
	if err := b.redirect(site, img.distTag); err != nil {
		return sample{}, nil, err
	}
	err = b.tr.step("distrib.pushback", phaseOther, func() error {
		return cl.back.Push(ctx, site.Repo, cache.RebuiltTag(img.distTag), t.app.Name, tag+"-comre")
	})
	if err != nil {
		return sample{}, nil, fmt.Errorf("push back: %w", err)
	}
	s.adapt = time.Since(start)
	seconds, err := b.run(site, img.distTag, t)
	if err != nil {
		return sample{}, nil, err
	}
	st := exec.Stats()
	s.remote, s.local = st.Remote, st.Local
	ref := b.refs[t.String()]
	s.speedup = ref.original / seconds
	s.ideal = ref.ideal
	s.execs = memo.Stats().Misses
	check := func() error {
		want, err := b.reference(t, img)
		if err != nil {
			return err
		}
		if rebuilt != want.rebuilt || seconds != want.seconds {
			return fmt.Errorf("op %d (%s) against the local path: %w", k, t, want.mismatch(rebuilt, seconds))
		}
		return nil
	}
	return s, check, nil
}
