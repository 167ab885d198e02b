package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"comtainer/internal/core/adapter"
	"comtainer/internal/fsim"
	"comtainer/internal/sysprofile"
	"comtainer/internal/workloads"
)

// runNodes is the node count every modeled run uses (the paper's
// Figure-9 scale).
const runNodes = 16

// triple is one adaptation target: a system, a Table-2 app and an
// adapter chain.
type triple struct {
	sys       *sysprofile.System
	app       *workloads.App
	optimized bool // adapter.DefaultOptimized instead of DefaultAdapted
}

func (t triple) String() string {
	chain := "adapted"
	if t.optimized {
		chain = "optimized"
	}
	return fmt.Sprintf("%s/%s/%s", t.sys.Name, t.app.Name, chain)
}

func (t triple) adapters() []adapter.Adapter {
	if t.optimized {
		return adapter.DefaultOptimized()
	}
	return adapter.DefaultAdapted()
}

// ref is the workload the triple's image runs: the app's first input
// deck.
func (t triple) ref() workloads.Ref {
	return workloads.Ref{App: t.app, Workload: t.app.Workloads[0]}
}

// systems returns the two Table-1 clusters in a fixed order.
func systems() []*sysprofile.System {
	return []*sysprofile.System{sysprofile.X86Cluster(), sysprofile.ArmCluster()}
}

// allTriples lists the 44 targets: 2 systems x 11 apps x 2 chains.
func allTriples() []triple {
	var out []triple
	for _, sys := range systems() {
		for _, app := range workloads.Apps() {
			out = append(out, triple{sys, app, false}, triple{sys, app, true})
		}
	}
	return out
}

// generator derives every input of a run from its seed: the order in
// which ops visit the triples and the bytes of each image version's
// input deck.
type generator struct {
	seed    int64
	triples []triple
	order   []int
	rng     *rand.Rand
}

func newGenerator(seed int64) *generator {
	return &generator{seed: seed, triples: allTriples(), rng: rand.New(rand.NewSource(seed))}
}

// next returns the triple of op k (ops are drawn in order). Ops walk
// seeded permutations of all 44 triples, one after another, so every
// block of 44 ops covers each triple exactly once and per-op averages
// do not drift with the draw.
func (g *generator) next(k int) triple {
	for len(g.order) <= k {
		g.order = append(g.order, g.rng.Perm(len(g.triples))...)
	}
	return g.triples[g.order[k]]
}

// defaultDeckBytes sizes the input deck of apps that bundle none.
const defaultDeckBytes = 2048

// deck returns the input deck of one version of app on isa: the app's
// bundled data (or a small generated deck when it bundles none) with
// 64 bytes overwritten at positions drawn from the seed, the ISA, the
// app and the version. Distinct versions therefore carry distinct
// data layers while sharing every other layer.
func (g *generator) deck(isa string, app *workloads.App, version int) []byte {
	var data []byte
	for _, b := range app.Data() {
		data = append([]byte(nil), b...)
	}
	if data == nil {
		pattern := []byte(app.Name + " generated input deck. ")
		data = make([]byte, defaultDeckBytes)
		for i := range data {
			data[i] = pattern[i%len(pattern)]
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s/%d", g.seed, isa, app.Name, version)
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	for i := 0; i < 64; i++ {
		data[r.Intn(len(data))] = byte(r.Intn(256))
	}
	return data
}

// buildContext assembles the build context of one app version: the
// app's sources (and Makefile) under /src and its input deck under
// /data, the layout workloads.App's Containerfile copies from.
func buildContext(app *workloads.App, isa string, deck []byte) *fsim.FS {
	ctx := fsim.New()
	for name, content := range app.Sources(isa) {
		ctx.WriteFile("/src/"+name, []byte(content), 0o644)
	}
	if app.UseMake {
		ctx.WriteFile("/src/Makefile", []byte(app.Makefile(isa)), 0o644)
	}
	ctx.WriteFile("/data/potentials.dat", deck, 0o644)
	return ctx
}

// containerfile renders the app's Containerfile with its input deck
// copied into the image, also for apps that bundle no data.
func containerfile(app *workloads.App, isa string, comtainer bool) string {
	withDeck := *app
	if withDeck.DataMiB <= 0 {
		withDeck.DataMiB = float64(defaultDeckBytes) / sysprofile.SizeUnit
	}
	return withDeck.Containerfile(isa, comtainer)
}
