package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"comtainer/internal/core"
	"comtainer/internal/core/cache"
	"comtainer/internal/oci"
	"comtainer/internal/sysprofile"
	"comtainer/internal/workloads"
)

// hplDAG is hpl's rebuild shape: six independent compiles and a link
// that needs them all.
func hplDAG() []action {
	dag := make([]action, 7)
	dag[6].deps = []int{0, 1, 2, 3, 4, 5}
	return dag
}

func TestIdealMakespanHPL(t *testing.T) {
	const cost = 40 * time.Millisecond
	for _, c := range []struct {
		workers int
		want    time.Duration
	}{{1, 280 * time.Millisecond}, {4, 120 * time.Millisecond}, {8, 80 * time.Millisecond}} {
		got, err := idealMakespan(hplDAG(), c.workers, cost)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%d workers: ideal %v, want %v", c.workers, got, c.want)
		}
	}
	if _, err := idealMakespan(hplDAG(), 0, cost); err == nil {
		t.Error("zero workers accepted")
	}
	cycle := []action{{deps: []int{1}}, {deps: []int{0}}}
	if _, err := idealMakespan(cycle, 2, cost); err == nil {
		t.Error("cyclic DAG accepted")
	}
}

// TestRebuildDAGOfHPL checks the DAG the benchmark derives from hpl's
// recorded build graph: 7 actions with a critical path of 2.
func TestRebuildDAGOfHPL(t *testing.T) {
	user, err := core.NewUserSide(sysprofile.X86Cluster().ISA)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workloads.Find("hpl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := user.BuildExtended(app)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := user.Repo.Resolve(res.ExtendedTag)
	if err != nil {
		t.Fatal(err)
	}
	img, err := oci.LoadImage(user.Repo.Store, desc)
	if err != nil {
		t.Fatal(err)
	}
	models, _, err := cache.Read(img)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := rebuildDAG(models.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(dag) != 7 {
		t.Fatalf("hpl rebuild has %d actions, want 7", len(dag))
	}
	got, err := idealMakespan(dag, 8, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got != 80*time.Millisecond {
		t.Fatalf("hpl ideal on 8 workers %v, want 80ms (critical path 2)", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	if _, err := percentile(xs(99), 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond) accepted")
	}
	got, err := percentile(xs(100), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) accepted")
	}
	if got, err := percentile(xs(20), 0.5); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 || median(nil) != 0 {
		t.Error("median wrong")
	}
}

// protoBuilder writes the protobuf subset runtime/pprof emits.
type protoBuilder struct{ bytes.Buffer }

func (b *protoBuilder) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *protoBuilder) bytesField(num int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func (b *protoBuilder) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytesField(num, p)
}

// syntheticProfile encodes stacks (leaf first) with weights as a
// gzipped profile. Each frame gets its own function and location;
// location 1 carries two inlined lines to exercise that path.
func syntheticProfile(t *testing.T, stacks [][]string, weights []int64) []byte {
	t.Helper()
	var p protoBuilder
	strs := []string{""}
	index := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		strs = append(strs, s)
		index[s] = uint64(len(strs) - 1)
		return index[s]
	}
	funcs := map[string]uint64{}
	var locs [][]uint64 // location i+1 -> function ids (leaf first)
	loc := func(fns ...string) uint64 {
		var ids []uint64
		for _, fn := range fns {
			id, ok := funcs[fn]
			if !ok {
				id = uint64(len(funcs) + 1)
				funcs[fn] = id
				var f protoBuilder
				f.varint(1, id)
				f.varint(2, str(fn))
				p.bytesField(5, f.Bytes())
			}
			ids = append(ids, id)
		}
		locs = append(locs, ids)
		return uint64(len(locs))
	}
	for i, stack := range stacks {
		var ids []uint64
		if i == 0 && len(stack) >= 2 {
			ids = append(ids, loc(stack[0], stack[1])) // inlined pair
			stack = stack[2:]
		}
		for _, fn := range stack {
			ids = append(ids, loc(fn))
		}
		var s protoBuilder
		if len(ids) > 2 {
			s.packed(1, ids...)
		} else {
			for _, id := range ids {
				s.varint(1, id)
			}
		}
		s.packed(2, 1, uint64(weights[i]))
		p.bytesField(2, s.Bytes())
	}
	for i, ids := range locs {
		var l protoBuilder
		l.varint(1, uint64(i+1))
		for _, id := range ids {
			var line protoBuilder
			line.varint(1, id)
			line.varint(2, 7)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// sha256 under tarfs: the hash is broken out.
		{"crypto/internal/fips140/sha256.blockAVX2", "crypto/sha256.(*Digest).Write", "comtainer/internal/tarfs.Marshal", "main.main"},
		// A plain tarfs leaf.
		{"comtainer/internal/tarfs.Marshal", "comtainer/internal/oci.WriteImage", "main.main"},
		// Runtime leaf under fsim: the nearest internal frame wins.
		{"runtime.memmove", "comtainer/internal/fsim.(*FS).WriteFile", "comtainer/internal/core/backend.executeGraph.func1"},
		// GC assist under a frontend allocation.
		{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "comtainer/internal/core/frontend.Analyze"},
		// A background mark worker has no internal frame at all.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// fsync under the action cache.
		{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "syscall.Fsync", "os.(*File).Sync", "comtainer/internal/actioncache.(*DiskCache).Put"},
		// Client transport goroutine: net/http only.
		{"bufio.(*Reader).Peek", "net/http.(*persistConn).readLoop"},
		// Nothing decides: counted in the total only.
		{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
	}
	weights := []int64{10, 20, 30, 10, 10, 10, 5, 5}
	samples, err := parseProfile(syntheticProfile(t, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] || s.value != weights[i] {
			t.Fatalf("sample %d decoded as %v/%d, want %v/%d", i, s.stack, s.value, stacks[i], weights[i])
		}
	}
	got := attribute(samples)
	want := map[string]float64{
		"sha256": 10, "tarfs": 20, "fsim": 30, "gc": 20, "syscall": 10, "nethttp": 5,
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("%s share %.2f%%, want %.2f%%", l, got[l], w)
		}
	}
	for l, g := range got {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected layer %s with %.2f%%", l, g)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("non-gzip input accepted")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // field 2 claims 5 bytes, has 1
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("truncated protobuf accepted")
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := newGenerator(1), newGenerator(1), newGenerator(2)
	same := true
	for k := 0; k < 100; k++ {
		if a.next(k).String() != b.next(k).String() {
			t.Fatalf("op %d differs under one seed", k)
		}
		same = same && a.next(k).String() == c.next(k).String()
	}
	if same {
		t.Error("seeds 1 and 2 draw the same op order")
	}
	seen := map[string]bool{}
	for k := 0; k < len(a.triples); k++ {
		seen[a.next(k).String()] = true
	}
	if len(seen) != 44 {
		t.Errorf("first 44 ops cover %d triples, want all 44", len(seen))
	}
	app, _ := workloads.Find("lammps")
	if !bytes.Equal(a.deck("x86", app, 3), b.deck("x86", app, 3)) {
		t.Error("deck differs under one seed")
	}
	if bytes.Equal(a.deck("x86", app, 3), a.deck("x86", app, 4)) || bytes.Equal(a.deck("x86", app, 3), c.deck("x86", app, 3)) {
		t.Error("decks of different versions or seeds are equal")
	}
}

func TestRecordFailsOpsOffTheWorkloadsPath(t *testing.T) {
	for _, c := range []struct {
		workload string
		s        sample
		ok       bool
	}{
		{"adapt-cold", sample{execs: 7}, true},
		{"adapt-cold", sample{}, false},
		{"adapt-warm", sample{}, true},
		{"adapt-warm", sample{execs: 1}, false},
		{"fleet-farm", sample{execs: 7, remote: 7}, true},
		{"fleet-farm", sample{execs: 7, remote: 6, local: 1}, false}, // one local fallback
		{"fleet-farm", sample{execs: 7, local: 7}, false},            // the farm never ran
	} {
		var ph phase
		err := ph.record(c.workload, c.s, nil)
		if ok := err == nil; ok != c.ok || ph.attempted != 1 || len(ph.samples)+ph.failed != 1 || (ph.failed == 0) != c.ok {
			t.Errorf("%s %+v: err %v, %d attempted, %d failed, %d samples; want ok=%v",
				c.workload, c.s, err, ph.attempted, ph.failed, len(ph.samples), c.ok)
		}
	}
	var ph phase
	if ph.record("adapt-warm", sample{}, errors.New("pull failed")) == nil || ph.failed != 1 || len(ph.samples) != 0 {
		t.Error("an op error was not counted as a failed op")
	}
}

func TestTrimColdKeepsCachesBelowTheCap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cold")
	if err := trimCold(dir, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"op-1/a", "op-2/b"} {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, make([]byte, 40), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := trimCold(dir, 2); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("2 caches under a cap of 2: %d left, want 2", len(entries))
	}
	if err := trimCold(dir, 1); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("2 caches over a cap of 1: %d left (%v), want an empty directory", len(entries), err)
	}
}
