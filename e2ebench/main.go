// Command e2ebench is the repository's end-to-end benchmark. It runs
// one seeded workload of the coMtainer site-adaptation workflow
// through the real pipeline in one process, checks every output
// against references built in setup, and prints its metrics as the
// last line of standard output: the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a traced run. See README.md.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload adapt-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRuns = 3

// buildDir holds the benchmark's binary, scratch data and traces,
// relative to the checkout root it runs from.
const buildDir = ".bench_build"

// coldDir holds adapt-cold's per-op action caches, one directory per
// op, until there are more than maxColdCaches.
var coldDir = filepath.Join(buildDir, "cold")

// maxColdCaches bounds what adapt-cold leaves on disk: at about 80 KiB
// per op, 4 GiB, or some 50 runs of 20 s, more than one checkout's
// measurements write.
const maxColdCaches = 50000

var workloadNames = []string{"adapt-cold", "adapt-warm", "fleet-farm"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, d time.Duration, trace int) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if d <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	if workload == "adapt-cold" {
		if err := trimCold(coldDir, maxColdCaches); err != nil {
			return err
		}
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var tr *tracer
	runs := setupRuns
	if trace == 1 {
		tr, runs = newTracer(), 1
	}
	var b *bench
	var setups []float64
	for i := 0; i < runs; i++ {
		if b != nil {
			b.close()
		}
		dir := filepath.Join(work, fmt.Sprint("setup-", i))
		start := time.Now()
		if b, err = setup(workload, seed, tr, dir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()

	// One untimed block first: the farm workers cache each rebuild's
	// base tree, and a long-running site is measured in steady state.
	warm, checks := b.measure(0, 0, 0)
	b.verify(&warm, checks)

	detail := map[string]any{"env": envStamp(seed), "workload": workload, "trace": trace, "setup_s": setups}
	var res result
	if trace == 0 {
		// A p90 needs minTail samples beyond it.
		ph, checks := b.measure(d, 10*minTail, warm.attempted)
		b.verify(&ph, checks)
		res, err = endToEnd(ph, median(setups), detail)
	} else {
		res, err = b.traced(d, warm.attempted, detail)
	}
	if err != nil {
		return err
	}
	res.Attempted += warm.attempted
	res.Failed += warm.failed
	res.Correct = res.Failed == 0
	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// trimCold deletes the adapt-cold caches of earlier runs in dir once
// there are more than maxCaches of them, and makes dir. It runs before
// set-up, outside every timed window. The caches are kept below the
// cap because deleting tens of thousands of small files slows later
// cold rebuilds on a file system mounted with online discard, and more
// so with every round (see README.md).
func trimCold(dir string, maxCaches int) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if len(entries) > maxCaches {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		syscall.Sync()
	}
	return os.MkdirAll(dir, 0o755)
}

// envStamp identifies the machine and inputs a result was measured
// on. Results from different machines are not comparable.
func envStamp(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"GOMAXPROCS":    runtime.GOMAXPROCS(0),
		"cpu":           cpu,
		"go":            runtime.Version(),
		"commit":        commit,
		"seed":          seed,
		"farm_exec_ms":  ms(execDelay),
		"farm_workers":  farmWorkers,
		"rebuild_cores": rebuildWorkers,
	}
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(ph phase, setupS float64, detail map[string]any) (result, error) {
	col := func(f func(sample) time.Duration) []float64 {
		out := make([]float64, len(ph.samples))
		for i, s := range ph.samples {
			out[i] = ms(f(s))
		}
		return out
	}
	adapt := col(func(s sample) time.Duration { return s.adapt })
	rebuild := col(func(s sample) time.Duration { return s.rebuild })
	speedups := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		speedups[i] = s.speedup
	}
	m := map[string]metric{}
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"adapt_ms", adapt}, {"rebuild_ms", rebuild}} {
		p90, err := percentile(c.xs, 0.9)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", c.name, err)
		}
		m[c.name+"_p50"] = metric{median(c.xs), "ms"}
		m[c.name+"_p90"] = metric{p90, "ms"}
	}
	m["adapt_per_s"] = metric{float64(len(ph.samples)) / ph.elapsed.Seconds(), "1/s"}
	m["alloc_MiB_per_op"] = metric{ratio(float64(ph.allocBytes)/mib, float64(ph.attempted)), "MiB"}
	m["adapted_speedup_geomean"] = metric{geomean(speedups), "ratio"}
	m["setup_s"] = metric{setupS, "s"}
	detail["samples"] = len(ph.samples)
	// The guardrail's exact value, so that any change to it shows.
	detail["adapted_speedup_geomean"] = strconv.FormatFloat(geomean(speedups), 'g', -1, 64)
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// traced measures half the run untraced, as the baseline of the
// tracing overhead and the source of the farm's timing ratios, and
// half with every wrapper and the CPU profiler on, and returns the
// per-layer metrics.
func (b *bench) traced(d time.Duration, first int, detail map[string]any) (result, error) {
	base, checks := b.measure(d/2, 0, first)
	b.verify(&base, checks)

	var hits0, misses0 int64
	if b.ff != nil {
		hits0, misses0 = b.ff.proxy.CacheStats()
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	b.tr.enabled.Store(true)
	ph, checks := b.measure(d/2, 0, first+base.attempted)
	b.tr.enabled.Store(false)
	pprof.StopCPUProfile()
	b.verify(&ph, checks)
	var hits, misses int64
	if b.ff != nil {
		hits, misses = b.ff.proxy.CacheStats()
		hits, misses = hits-hits0, misses-misses0
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", b.workload, b.gen.seed))
	if err := b.tr.writeChrome(tracePath); err != nil {
		return result{}, err
	}
	detail["trace_file"] = tracePath
	detail["samples"] = map[string]int{"untraced": len(base.samples), "traced": len(ph.samples), "cpu_profile": len(samples)}

	t := b.tr
	m := map[string]metric{}
	ops := float64(ph.attempted)
	perOp := map[string][]float64{}
	for _, names := range t.selfTimes() {
		for name, self := range names {
			perOp[name] = append(perOp[name], ms(self))
		}
	}
	for _, name := range []string{"sysprofile.populate", "oci.pull", "backend.rebuild", "backend.redirect", "chrun.run"} {
		m[name+"_ms"] = metric{median(perOp[name]), "ms"}
	}
	m["populate.alloc_MiB"] = metric{ratio(float64(t.alloc[allocPopulate].Load())/mib, ops), "MiB"}
	m["rebuild.alloc_MiB"] = metric{ratio(float64(t.alloc[allocRebuild].Load())/mib, ops), "MiB"}

	gets, puts := float64(t.acGets.Load()), float64(t.acPuts.Load())
	m["actioncache.gets_per_op"] = metric{ratio(gets, ops), "count"}
	m["actioncache.get_ms"] = metric{ratio(float64(t.acGetNanos.Load())/1e6, gets), "ms"}
	m["actioncache.hit_ratio"] = metric{ratio(float64(t.acHits.Load()), gets), "ratio"}
	m["actioncache.puts_per_op"] = metric{ratio(puts, ops), "count"}
	m["actioncache.put_ms"] = metric{ratio(float64(t.acPutNanos.Load())/1e6, puts), "ms"}
	m["actioncache.put_KiB_per_op"] = metric{ratio(float64(t.acPutBytes.Load())/kib, ops), "KiB"}
	var execs float64
	for _, s := range ph.samples {
		execs += float64(s.execs)
	}
	m["toolchain.execs_per_op"] = metric{ratio(execs, float64(len(ph.samples))), "count"}

	shares := attribute(samples)
	for _, l := range cpuLayers {
		m["cpu."+l+"_pct"] = metric{shares[l], "%"}
	}

	// One push and one pull per op on fleet-farm; none on the adapt
	// workloads, where every fleet and farm metric reads zero.
	var xfers float64
	if b.ff != nil {
		xfers = ops
	}
	m["http.requests_per_push"] = metric{ratio(float64(t.reqs[rolePush].Load()), xfers), "count"}
	m["http.requests_per_pull"] = metric{ratio(float64(t.reqs[rolePull].Load()), xfers), "count"}
	m["distrib.blobs_uploaded_per_push"] = metric{ratio(float64(t.uploads.Load()), xfers), "count"}
	m["distrib.blobs_skipped_per_push"] = metric{ratio(float64(t.skips.Load()), xfers), "count"}
	m["distrib.MiB_per_pull"] = metric{ratio(float64(t.pullBytes.Load())/mib, xfers), "MiB"}
	var pushMS, efficiency []float64
	if b.ff != nil {
		for _, s := range base.samples {
			pushMS = append(pushMS, ms(s.push))
			efficiency = append(efficiency, float64(s.ideal)/float64(s.rebuild))
		}
	}
	m["distrib.push_ms"] = metric{median(pushMS), "ms"}
	m["fleet.proxy_ms"] = metric{ratio(float64(t.proxyNanos.Load())/1e6, float64(t.proxyReqs.Load())), "ms"}
	m["fleet.shard_ms"] = metric{ratio(float64(t.shardNanos.Load())/1e6, float64(t.shardReqs.Load())), "ms"}
	m["fleet.replicate_ms_per_push"] = metric{ratio(float64(t.replNanos.Load())/1e6, xfers), "ms"}
	m["fleet.proxy_cache_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}

	t.farmMu.Lock()
	var queue, running, notify []float64
	for _, tt := range t.tasks {
		if !tt.submit.IsZero() && !tt.lease.IsZero() {
			queue = append(queue, ms(tt.lease.Sub(tt.submit)))
		}
		if !tt.lease.IsZero() && !tt.result.IsZero() {
			running = append(running, ms(tt.result.Sub(tt.lease)))
		}
		if !tt.result.IsZero() && !tt.done.IsZero() {
			notify = append(notify, ms(tt.done.Sub(tt.result)))
		}
	}
	actions := float64(t.submitted)
	m["remoteexec.actions_per_op"] = metric{ratio(actions, ops), "count"}
	m["remoteexec.status_polls_per_action"] = metric{ratio(float64(t.statusPolls), actions), "count"}
	m["remoteexec.lease_polls_per_action"] = metric{ratio(float64(t.leasePolls), actions), "count"}
	t.farmMu.Unlock()
	var remote, local float64
	for _, s := range ph.samples {
		remote, local = remote+float64(s.remote), local+float64(s.local)
	}
	m["remoteexec.remote_ratio"] = metric{ratio(remote, remote+local), "ratio"}
	m["remoteexec.queue_ms"] = metric{median(queue), "ms"}
	m["remoteexec.run_ms"] = metric{median(running), "ms"}
	m["remoteexec.notify_ms"] = metric{median(notify), "ms"}
	m["remoteexec.blob_KiB_per_action"] = metric{ratio(float64(t.farmBytes.Load())/kib, actions), "KiB"}
	m["remoteexec.farm_efficiency"] = metric{median(efficiency), "ratio"}

	baseP50 := median(columnMS(base.samples))
	m["trace_overhead_pct"] = metric{100 * (ratio(median(columnMS(ph.samples)), baseP50) - 1), "%"}

	failed := base.failed + ph.failed
	return result{
		Correct:   failed == 0,
		Attempted: base.attempted + ph.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

func columnMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.adapt)
	}
	return out
}
