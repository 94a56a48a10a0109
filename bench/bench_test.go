package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"capsys/internal/engine"
)

func ascending(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

// The tail picker returns the highest percentile that still leaves ten
// samples beyond it.
func TestPickTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV int64
	}{
		{5, 0.5, 3},
		{40, 0.75, 30},
		{100, 0.9, 90},
		{999, 0.95, 950},
		{1000, 0.99, 990},
		{10_000, 0.999, 9990},
		{2_000_000, 0.99999, 1_999_980},
	} {
		p, v := pickTail(ascending(tc.n))
		if p != tc.wantP || v != tc.wantV {
			t.Errorf("n=%d: got p%g=%d, want p%g=%d", tc.n, p*100, v, tc.wantP*100, tc.wantV)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4): the
// acceptance pipeline computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{7, 1, 3, 10, 4, 8, 2, 9, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "engine", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "bench", StartNS: 10, EndNS: 40},  // nested child
		{ID: 3, Parent: 1, Layer: "bench", StartNS: 30, EndNS: 60},  // overlaps child 2
		{ID: 4, Parent: 2, Layer: "caps", StartNS: 15, EndNS: 20},   // grandchild: covers child 2 only
		{ID: 5, Parent: 1, Layer: "bench", StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 6, Parent: 1, Layer: "bench", StartNS: 35, EndNS: 38},  // inside the overlap
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the root: 60 of its 100.
	if self[1] != 40 {
		t.Errorf("root self time = %d, want 40", self[1])
	}
	if self[2] != 25 { // 30 minus the 5 its own child covers
		t.Errorf("span 2 self time = %d, want 25", self[2])
	}
	if self[3] != 30 || self[4] != 5 {
		t.Errorf("leaf self times = %d, %d; want 30, 5", self[3], self[4])
	}
	byLayer := layerSelfMS(spans)
	if got := byLayer["engine"]; got != 40.0/1e6 {
		t.Errorf("engine layer self = %v ms", got)
	}
}

// A stalled generator must inflate latency, not just lateness: record i is
// stamped with its due time whenever the engine gets round to asking for it.
func TestDueTimeStamping(t *testing.T) {
	now := int64(1_000_000_000)
	clock := func() int64 { return now }
	const rate = 1000.0 // one record per millisecond
	st := newStamper(clock, rate, 10)
	var stamps []int64
	for i := int64(0); i < 10; i++ {
		if i == 5 {
			now += 50_000_000 // the generator is held back for 50 ms
		}
		stamps = append(stamps, st.stamp(i))
		now += 1_000_000
	}
	for i, s := range stamps {
		if want := int64(1_000_000_000) + int64(i)*1_000_000; s != want {
			t.Fatalf("record %d stamped %d, want its due time %d", i, s, want)
		}
	}
	// A sink that sees record 5 the instant it is emitted measures the stall.
	if lat := (stamps[5] + 50_000_000) - stamps[5]; lat != 50_000_000 {
		t.Fatalf("latency of the stalled record = %d", lat)
	}
	if st.late[4] != 0 || st.late[5] != 50_000_000 || st.late[9] != 50_000_000 {
		t.Errorf("lateness = %v", st.late)
	}
	if o := st.overrunPct(); o < 550 || o > 560 { // 9 ms scheduled, 59 ms taken
		t.Errorf("overrun = %.1f%%, want ≈ 555%%", o)
	}
	// A restored source starts at an offset: record i is due now.
	st2 := newStamper(clock, rate, 4)
	if got := st2.stamp(1000); got != now {
		t.Errorf("first record of a restored source stamped %d, want now %d", got, now)
	}
	if got := st2.stamp(1001); got != now+1_000_000 {
		t.Errorf("next record stamped %d", got)
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	recs := make([]engine.Record, 500)
	for i := range recs {
		recs[i] = engine.Record{Key: "k" + string(rune('a'+i%26)), Value: int64(i * 7), Time: int64(i)}
	}
	sum := func(rs []engine.Record, withTime bool) digest {
		var d digest
		for _, r := range rs {
			d.add(digest{Count: 1, Sum: recordHash(r, withTime)})
		}
		return d
	}
	ref := sum(recs, true)
	shuffled := append([]engine.Record(nil), recs...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := sum(shuffled, true); got != ref {
		t.Errorf("shuffled digest %v != %v", got, ref)
	}
	// int and int64 of the same value hash alike; a changed value, a changed
	// key, a dropped record and a duplicated one do not.
	if recordHash(engine.Record{Value: 7}, true) != recordHash(engine.Record{Value: int64(7)}, true) {
		t.Error("int and int64 hash differently")
	}
	for name, mutate := range map[string]func([]engine.Record) []engine.Record{
		"value":     func(rs []engine.Record) []engine.Record { rs[3].Value = int64(1); return rs },
		"key":       func(rs []engine.Record) []engine.Record { rs[3].Key = "zz"; return rs },
		"time":      func(rs []engine.Record) []engine.Record { rs[3].Time++; return rs },
		"dropped":   func(rs []engine.Record) []engine.Record { return rs[1:] },
		"duplicate": func(rs []engine.Record) []engine.Record { return append(rs, rs[0]) },
	} {
		if got := sum(mutate(append([]engine.Record(nil), recs...)), true); got == ref {
			t.Errorf("%s change went unnoticed", name)
		}
	}
	// Stamped runs ignore Time.
	moved := append([]engine.Record(nil), recs...)
	moved[3].Time += 12345
	if sum(moved, false) != sum(recs, false) {
		t.Error("time-free digest depends on Time")
	}
	w := want{withTime: ref, noTime: sum(recs, false)}
	if w.mismatch(ref, false) != 0 || w.mismatch(digest{Count: ref.Count - 2, Sum: 1}, false) != 2 || w.mismatch(digest{Count: ref.Count, Sum: 1}, false) != ref.Count {
		t.Error("mismatch counts wrong")
	}
}

// The sink's fingerprint travels with checkpoints: a restore rolls it back,
// so replayed records are counted once.
func TestSinkSnapshotRoundTrip(t *testing.T) {
	s := &checkSink{}
	for i := 0; i < 10; i++ {
		_ = s.Process(engine.Record{Value: int64(i)}, 0, nil)
	}
	img, _ := s.SnapshotState()
	at10 := s.d
	for i := 10; i < 15; i++ {
		_ = s.Process(engine.Record{Value: int64(i)}, 0, nil)
	}
	fresh := &checkSink{}
	if err := fresh.RestoreState(img); err != nil || fresh.d != at10 {
		t.Fatalf("restored %v (err %v), want %v", fresh.d, err, at10)
	}
	if err := fresh.RestoreState([]byte{1, 2, 3}); err == nil {
		t.Error("short image accepted")
	}
}

// cannedStacks is what a CPU profile of a network run looks like, leaf first.
var cannedStacks = []stackSample{
	{weight: 30, stack: []frame{ // gob under frame.go: the codec's time
		{"reflect.Value.Field", "reflect/value.go"},
		{"encoding/gob.(*Encoder).encodeStruct", "encoding/gob/encode.go"},
		{"encoding/gob.(*Encoder).Encode", "encoding/gob/encoder.go"},
		{"capsys/internal/engine.EncodePayload", "capsys/internal/engine/frame.go"},
		{"capsys/internal/engine.(*netNode).sendBatch", "capsys/internal/engine/netexchange.go"},
		{"capsys/internal/engine.(*batchedSender).flushTarget", "capsys/internal/engine/exchange.go"},
	}},
	{weight: 20, stack: []frame{ // runtime only: background GC
		{"runtime.scanobject", "runtime/mgcmark.go"},
		{"runtime.gcDrain", "runtime/mgcmark.go"},
		{"runtime.gcBgMarkWorker", "runtime/mgc.go"},
	}},
	{weight: 25, stack: []frame{ // a write system call issued by the wire
		{"internal/runtime/syscall.Syscall6", "internal/runtime/syscall/asm_linux_amd64.s"},
		{"syscall.write", "syscall/zsyscall_linux_amd64.go"},
		{"internal/poll.(*FD).Write", "internal/poll/fd_unix.go"},
		{"net.(*conn).Write", "net/net.go"},
		{"capsys/internal/engine.WriteFrame", "capsys/internal/engine/frame.go"},
	}},
	{weight: 10, stack: []frame{ // malloc under the bench's own sink
		{"runtime.mallocgc", "runtime/malloc.go"},
		{"main.(*checkSink).Process", "capsys/bench/check.go"},
		{"capsys/internal/engine.(*attempt).processRecord", "capsys/internal/engine/task.go"},
	}},
	{weight: 5, stack: []frame{{"capsys/internal/engine.(*MeterShard).Strike", "/root/repo/internal/engine/resources.go"}}},
	{weight: 5, stack: []frame{{"capsys/internal/statebackend.(*Namespace).Put", "capsys/internal/statebackend/statebackend.go"}}},
	{weight: 5, stack: []frame{{"capsys/internal/controller.(*Coordinator).Run", "capsys/internal/controller/distrib.go"}}},
}

func TestCPUShareBuckets(t *testing.T) {
	want := []string{"engine.frame", "go_runtime", "syscall_net", "bench", "engine.resources", "statebackend", "other"}
	for i, s := range cannedStacks {
		if got := bucketOf(s.stack); got != want[i] {
			t.Errorf("stack %d charged to %s, want %s", i, got, want[i])
		}
	}
	shares := cpuShares(cannedStacks)
	total := 0.0
	for _, b := range cpuBuckets {
		total += shares[b]
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v", total)
	}
	if shares["engine.frame"] != 0.30 || shares["syscall_net"] != 0.25 || shares["go_runtime"] != 0.20 {
		t.Errorf("shares = %v", shares)
	}
}

// A profile of this process parses, and work done under a bench function is
// charged to the bench.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	x := uint64(1)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1e6; i++ {
			x = fnvUint64(x, uint64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profiler took no samples")
	}
	// Most of the loop's samples carry a bench frame; how many exactly depends
	// on the build (under -race the detector's own stacks are runtime-only).
	if got := cpuShares(samples)["bench"]; got < 0.1 {
		t.Errorf("bench share of a bench-only busy loop = %.2f (x=%d)", got, x)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.05},
		{Name: "cpu_us_per_rec", Unit: "us", Better: "lower", Bound: 0.05},
	}}
	run := func(tput, cpu float64, tputReps []float64, failed int64, noisy bool) *side {
		return &side{name: "x", noisy: noisy, runs: []resultFile{{Workloads: []workloadResult{{
			Workload: "w", Attempted: 100, Failed: failed,
			Metrics: map[string]metric{
				"throughput_rps": {Value: tput, Reps: tputReps},
				"cpu_us_per_rec": {Value: cpu, Reps: []float64{cpu, cpu, cpu}},
			}}}}}}
	}
	steady := []float64{100, 101, 99, 100, 100}
	base := run(100, 10, steady, 0, false)
	for _, tc := range []struct {
		name      string
		b         *side
		tput, cpu string
	}{
		{"same", run(101, 10.2, steady, 0, false), "within", "within"},
		{"faster", run(110, 9, steady, 0, false), "better", "better"},
		{"slower", run(90, 11, steady, 0, false), "worse", "worse"},
		{"own spread too wide", run(90, 10, []float64{70, 80, 90, 100, 110}, 0, false), "unresolved", "within"},
		{"noisy machine", run(90, 11, steady, 0, true), "unresolved", "unresolved"},
	} {
		rows := compareSides(spec, base, tc.b)
		if len(rows) != 2 || rows[0].verdict != tc.tput || rows[1].verdict != tc.cpu {
			t.Errorf("%s: verdicts %+v, want %s/%s", tc.name, rows, tc.tput, tc.cpu)
		}
	}
	var out bytes.Buffer
	if worse, _ := printComparison(&out, spec, base, run(100, 10, steady, 3, false)); worse != 1 {
		t.Errorf("a higher failure share must count as worse:\n%s", out.String())
	}
	// A side that is a set of runs is judged by the spread between its runs.
	set := &side{name: "set"}
	for _, v := range []float64{80, 95, 100, 105, 120} {
		set.runs = append(set.runs, run(v, 10, steady, 0, false).runs[0])
	}
	if rows := compareSides(spec, base, set); rows[0].verdict != "unresolved" {
		t.Errorf("set with a wide spread: %+v", rows[0])
	}
}

// The smoke test runs all six workloads at 1/100 size, traced and untraced,
// and checks that the names the benchmark prints are exactly the names
// BENCHMARK.json lists.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	spec, root, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the bench has %d", len(spec.Workloads), len(workloads()))
	}
	listed := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		listed[m.Name] = true
	}
	produced := map[string]bool{}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
			continue
		}
		for _, trace := range []string{"0", "1"} {
			part := filepath.Join(t.TempDir(), w.Name+trace+".json")
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--quick", "--out", part)
			cmd.Dir = root
			out, err := cmd.Output()
			if err != nil {
				t.Errorf("%s trace=%s: %v\n%s", w.Name, trace, err, out)
				continue
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Errorf("%s trace=%s: last line is not the result object: %v", w.Name, trace, err)
				continue
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, line.Correct, line.Attempted, line.Failed)
			}
			list := spec.EndToEnd
			if trace == "1" {
				list = spec.PerLayer
			}
			if len(line.Metrics) != len(list) {
				t.Errorf("%s trace=%s: %d metrics in the result line, BENCHMARK.json lists %d", w.Name, trace, len(line.Metrics), len(list))
			}
			for _, m := range list {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s missing or in unit %q", w.Name, trace, m.Name, got.Unit)
				} else if trace == "0" && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			buf, err := os.ReadFile(part)
			if err != nil {
				t.Error(err)
				continue
			}
			var full workloadResult
			if err := json.Unmarshal(buf, &full); err != nil {
				t.Error(err)
				continue
			}
			for name := range full.Metrics {
				produced[name] = true
				if !listed[name] {
					t.Errorf("%s trace=%s prints %s, which BENCHMARK.json does not list", w.Name, trace, name)
				}
			}
			if trace == "1" {
				total := 0.0
				for _, b := range cpuBuckets {
					total += full.Metrics["cpu_share."+b].Value
				}
				// A quick-size run can be too short for the profiler's
				// 100 Hz clock to take a single sample.
				if profiled := full.Metrics["cpu_share.other"].Samples > 0; profiled && (total < 0.99 || total > 1.01) {
					t.Errorf("%s: cpu_share.* sums to %.3f", w.Name, total)
				}
				if _, err := os.Stat(filepath.Join(outDir(root), "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
	for name := range listed {
		if !produced[name] {
			t.Errorf("BENCHMARK.json lists %s, which no workload prints", name)
		}
	}
}
