package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"capsys/internal/engine"
	"capsys/internal/telemetry"
)

// The process battery: build the caplive binary once, run a coordinator and
// three worker OS processes over loopback TCP, and require the distributed
// sink outcome — clean, live-rescaled and with a SIGKILLed worker — to match
// an in-process reference run of the identical job.

var capliveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "caplive-dist")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	capliveBin = filepath.Join(dir, "caplive")
	build := exec.Command("go", "build", "-o", capliveBin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building caplive:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

const (
	battSeed    = 4
	battRecords = 800
	battCkpt    = 150
	battWorkers = 3
	battSlots   = 16
)

// battReference runs the identical job in-process (batched transport) and
// returns the expected sink/source counts. It goes through caplive's own
// launch, so the plan matches the coordinator's exactly: same strategy, same
// cluster (the flag defaults for cores/io-bps/net-bps), same seed.
func battReference(t *testing.T, query, strategy string) (sink, source int64) {
	t.Helper()
	f, o := parseFlags(t, "-query", query, "-strategy", strategy, "-seed", fmt.Sprint(battSeed),
		"-workers", fmt.Sprint(battWorkers), "-slots", fmt.Sprint(battSlots))
	d, err := launch(f, o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := d.Run(ctx, engine.JobOptions{
		RecordsPerSource: battRecords,
		SnapshotInterval: battCkpt,
		Transport:        engine.TransportBatched,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Result.SinkRecords, out.Result.SourceRecords
}

// distLine is the parsed "dist: k=v ..." summary the coordinator prints.
type distLine map[string]int64

func (d distLine) get(t *testing.T, key string) int64 {
	t.Helper()
	v, ok := d[key]
	if !ok {
		t.Fatalf("dist summary missing %q: %v", key, d)
	}
	return v
}

func parseDistLine(line string) (distLine, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(line), "dist: ")
	if !ok {
		return nil, false
	}
	out := distLine{}
	for _, kv := range strings.Fields(rest) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, false
		}
		var n int64
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
			return nil, false
		}
		out[k] = n
	}
	return out, true
}

// procCluster supervises one coordinator process plus battWorkers joiner
// processes and streams the coordinator's stdout line by line.
type procCluster struct {
	t       *testing.T
	coord   *exec.Cmd
	joiners []*exec.Cmd
	lines   chan string
	done    chan error

	mu  sync.Mutex
	log []string
}

func startProcCluster(t *testing.T, query, strategy string, extraCoordArgs ...string) *procCluster {
	t.Helper()
	pc := &procCluster{
		t:     t,
		lines: make(chan string, 256),
		done:  make(chan error, 1),
	}
	args := []string{
		"-listen", "127.0.0.1:0",
		"-query", query,
		"-strategy", strategy,
		"-seed", fmt.Sprint(battSeed),
		"-records", fmt.Sprint(battRecords),
		"-checkpoint-every", fmt.Sprint(battCkpt),
		"-workers", fmt.Sprint(battWorkers),
		"-slots", fmt.Sprint(battSlots),
		"-timeout", "2m",
	}
	pc.coord = exec.Command(capliveBin, append(args, extraCoordArgs...)...)
	stdout, err := pc.coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	pc.coord.Stderr = os.Stderr
	if err := pc.coord.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			pc.mu.Lock()
			pc.log = append(pc.log, line)
			pc.mu.Unlock()
			select {
			case pc.lines <- line:
			default:
			}
		}
		pc.done <- pc.coord.Wait()
	}()
	t.Cleanup(func() {
		pc.coord.Process.Kill()
		for _, j := range pc.joiners {
			if j.Process != nil {
				j.Process.Kill()
			}
			j.Wait()
		}
	})

	// The coordinator binds :0; its first line reports the real address.
	addr := ""
	for addr == "" {
		line := pc.waitLine("control plane on ", time.Minute)
		rest := line[strings.Index(line, "control plane on ")+len("control plane on "):]
		addr = strings.Fields(rest)[0]
		addr = strings.TrimSuffix(addr, ",")
	}
	for i := 0; i < battWorkers; i++ {
		// The fast heartbeat paces metric/trace shipping so even the short
		// battery runs expose live telemetry before completing.
		j := exec.Command(capliveBin, "-join", addr, "-timeout", "2m", "-heartbeat-every", "50ms")
		j.Stdout = io.Discard
		j.Stderr = os.Stderr
		if err := j.Start(); err != nil {
			t.Fatal(err)
		}
		pc.joiners = append(pc.joiners, j)
	}
	return pc
}

// waitLine blocks until the coordinator prints a line containing substr.
func (pc *procCluster) waitLine(substr string, timeout time.Duration) string {
	pc.t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line := <-pc.lines:
			if strings.Contains(line, substr) {
				return line
			}
		case err := <-pc.done:
			pc.t.Fatalf("coordinator exited (%v) before printing %q; log:\n  %s",
				err, substr, strings.Join(pc.snapshotLog(), "\n  "))
		case <-deadline:
			pc.t.Fatalf("timed out waiting for %q; coordinator log:\n  %s",
				substr, strings.Join(pc.snapshotLog(), "\n  "))
		}
	}
}

func (pc *procCluster) snapshotLog() []string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return append([]string(nil), pc.log...)
}

// metricsURL scans the coordinator log for the cluster-telemetry banner
// (printed before the control-plane line, so it is already in the log once
// startProcCluster returns) and extracts the base URL.
func (pc *procCluster) metricsURL() string {
	pc.t.Helper()
	for _, line := range pc.snapshotLog() {
		if i := strings.Index(line, "cluster telemetry: serving http://"); i >= 0 {
			rest := line[i+len("cluster telemetry: serving "):]
			return strings.TrimSuffix(strings.Fields(rest)[0], "/metrics")
		}
	}
	pc.t.Fatalf("no cluster-telemetry banner in coordinator log:\n  %s",
		strings.Join(pc.snapshotLog(), "\n  "))
	return ""
}

// finished reports whether the coordinator has printed its dist summary,
// i.e. the run is over and a scrape is no longer "mid-run".
func (pc *procCluster) finished() bool {
	for _, line := range pc.snapshotLog() {
		if _, ok := parseDistLine(line); ok {
			return true
		}
	}
	return false
}

func httpGetBody(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

// finish waits for the coordinator to exit cleanly and returns the parsed
// dist summary line.
func (pc *procCluster) finish(timeout time.Duration) distLine {
	pc.t.Helper()
	select {
	case err := <-pc.done:
		if err != nil {
			pc.t.Fatalf("coordinator failed: %v; log:\n  %s", err, strings.Join(pc.snapshotLog(), "\n  "))
		}
	case <-time.After(timeout):
		pc.t.Fatalf("coordinator did not finish; log:\n  %s", strings.Join(pc.snapshotLog(), "\n  "))
	}
	for _, line := range pc.snapshotLog() {
		if d, ok := parseDistLine(line); ok {
			return d
		}
	}
	pc.t.Fatalf("no dist summary in coordinator output:\n  %s", strings.Join(pc.snapshotLog(), "\n  "))
	return nil
}

// TestProcessClusterCleanRun: three worker OS processes, loopback TCP data
// plane, sink outcome identical to the in-process reference.
func TestProcessClusterCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process battery")
	}
	for _, query := range []string{"Q3-inf", "Q2-join"} {
		t.Run(query, func(t *testing.T) {
			wantSink, wantSource := battReference(t, query, "evenly")
			pc := startProcCluster(t, query, "evenly", "-metrics-addr", "127.0.0.1:0")

			// Mid-run scrape: the coordinator's /metrics must serve live
			// per-worker wire-level and saturation series while the job is
			// still running — not only after completion.
			base := pc.metricsURL()
			sawLive := false
			for deadline := time.Now().Add(90 * time.Second); time.Now().Before(deadline); {
				done := pc.finished()
				_, body, err := httpGetBody(base + "/metrics")
				if err == nil &&
					strings.Contains(body, `capsys_worker_net_frames_sent_total{worker="`) &&
					strings.Contains(body, `capsys_worker_saturation{`) &&
					strings.Contains(body, "capsys_cluster_net_frames_sent_total") {
					if !done {
						sawLive = true
					}
					break
				}
				if done {
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
			if !sawLive {
				t.Error("per-worker net.* and saturation series never appeared on /metrics before completion")
			}

			d := pc.finish(2 * time.Minute)
			if got := d.get(t, "sink_records"); got != wantSink {
				t.Errorf("sink_records = %d, in-process reference = %d", got, wantSink)
			}
			if got := d.get(t, "source_records"); got != wantSource {
				t.Errorf("source_records = %d, in-process reference = %d", got, wantSource)
			}
			if got := d.get(t, "recoveries"); got != 0 {
				t.Errorf("recoveries = %d on a clean run", got)
			}
			if got := d.get(t, "lost_records"); got != 0 {
				t.Errorf("lost_records = %d on a clean run", got)
			}
			// Net-plane totals ride on the summary line.
			if got := d.get(t, "net_frames"); got <= 0 {
				t.Errorf("net_frames = %d, want > 0", got)
			}
			if got := d.get(t, "net_bytes"); got <= 0 {
				t.Errorf("net_bytes = %d, want > 0", got)
			}
			if got := d.get(t, "unexpected_frames"); got != 0 {
				t.Errorf("unexpected_frames = %d on a clean run", got)
			}
			d.get(t, "credit_wait_p99_us") // present; value is workload-dependent
			for _, j := range pc.joiners {
				if err := j.Wait(); err != nil {
					t.Errorf("joiner exited nonzero: %v", err)
				}
			}
		})
	}
}

// TestProcessClusterRescale: a two-operator -rescale across three worker OS
// processes. Every worker builds the rescaled topology from the DEPLOY's
// assignments alone; the run applies both changes, loses nothing and lands on
// the in-process reference's sink outcome.
func TestProcessClusterRescale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process battery")
	}
	wantSink, wantSource := battReference(t, "Q1-sliding", "evenly")
	pc := startProcCluster(t, "Q1-sliding", "evenly", "-rescale", "map=3,slide-win=5")
	d := pc.finish(2 * time.Minute)
	if got := d.get(t, "rescales"); got != 2 {
		t.Errorf("rescales = %d, want 2 (map and slide-win)", got)
	}
	if got := d.get(t, "rescale_moved_bytes"); got <= 0 {
		t.Errorf("rescale_moved_bytes = %d, want > 0", got)
	}
	if got := d.get(t, "lost_records"); got != 0 {
		t.Errorf("lost_records = %d after the rescale", got)
	}
	if got := d.get(t, "recoveries"); got != 0 {
		t.Errorf("recoveries = %d on a clean rescale", got)
	}
	if got := d.get(t, "sink_records"); got != wantSink {
		t.Errorf("sink_records = %d, in-process reference = %d", got, wantSink)
	}
	if got := d.get(t, "source_records"); got != wantSource {
		t.Errorf("source_records = %d, in-process reference = %d", got, wantSource)
	}
	for _, j := range pc.joiners {
		if err := j.Wait(); err != nil {
			t.Errorf("joiner exited nonzero: %v", err)
		}
	}
}

// TestProcessClusterSIGKILLRecovery: SIGKILL a worker process after the
// first complete checkpoint; the cluster must restart from that checkpoint
// and still land on the reference sink outcome. Along the way, /healthz
// must flip the victim to dead within one heartbeat timeout, and the
// coordinator's -trace-out timeline must span the checkpoint and the
// recovery with events from every worker process.
func TestProcessClusterSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process battery")
	}
	traceOut := filepath.Join(t.TempDir(), "cluster-trace.jsonl")
	wantSink, wantSource := battReference(t, "Q3-inf", "evenly")
	pc := startProcCluster(t, "Q3-inf", "evenly",
		"-metrics-addr", "127.0.0.1:0", "-trace-out", traceOut)
	base := pc.metricsURL()

	// Kill mid-epoch: after epoch 1 is durable but well before completion.
	pc.waitLine("checkpoint: epoch 1 complete", time.Minute)
	victim := pc.joiners[1]
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL worker: %v", err)
	}
	killAt := time.Now()

	// /healthz must report the cluster degraded within one heartbeat
	// timeout (5s default) of the SIGKILL; allow scheduling slack on top.
	var detected time.Duration
	for time.Now().Before(killAt.Add(10 * time.Second)) {
		code, body, err := httpGetBody(base + "/healthz")
		if err == nil && code == http.StatusServiceUnavailable {
			var rep struct {
				Healthy bool `json:"healthy"`
				Workers []struct {
					ID    string `json:"id"`
					Alive bool   `json:"alive"`
				} `json:"workers"`
			}
			if err := json.Unmarshal([]byte(body), &rep); err != nil {
				t.Fatalf("/healthz body: %v\n%s", err, body)
			}
			dead := 0
			for _, w := range rep.Workers {
				if !w.Alive {
					dead++
				}
			}
			if rep.Healthy || dead != 1 {
				t.Errorf("degraded /healthz report = %s, want healthy=false with exactly 1 dead worker", body)
			}
			detected = time.Since(killAt)
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if detected == 0 {
		t.Error("/healthz never reported the SIGKILLed worker dead")
	} else if detected > 7*time.Second {
		t.Errorf("/healthz took %v to reflect the SIGKILL, want within one heartbeat timeout (5s) plus slack", detected)
	}

	d := pc.finish(2 * time.Minute)
	if got := d.get(t, "recoveries"); got != 1 {
		t.Errorf("recoveries = %d, want 1", got)
	}
	if got := d.get(t, "restored_epoch"); got < 1 {
		t.Errorf("restored_epoch = %d, want >= 1 (restart must come from the checkpoint)", got)
	}
	if got := d.get(t, "sink_records"); got != wantSink {
		t.Errorf("sink_records after SIGKILL recovery = %d, in-process reference = %d", got, wantSink)
	}
	if got := d.get(t, "source_records"); got != wantSource {
		t.Errorf("source_records = %d, in-process reference = %d", got, wantSource)
	}
	if got := d.get(t, "lost_records"); got != 0 {
		t.Errorf("lost_records = %d after recovery", got)
	}

	// The merged timeline: causally ordered (dense cluster sequence),
	// provenance from every worker process plus the coordinator, and it
	// spans both a completed checkpoint epoch and the recovery.
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("read -trace-out: %v", err)
	}
	srcs := map[string]bool{}
	kinds := map[string]bool{}
	ckptEpoch := int64(0)
	prevSeq := int64(-1)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Schema != telemetry.TraceSchemaVersion {
			t.Fatalf("trace schema = %d, want %d: %s", ev.Schema, telemetry.TraceSchemaVersion, line)
		}
		if ev.Seq != prevSeq+1 {
			t.Fatalf("cluster seq jumped %d -> %d (timeline not causally ordered): %s", prevSeq, ev.Seq, line)
		}
		prevSeq = ev.Seq
		srcs[ev.Src] = true
		kinds[ev.Kind] = true
		if ev.Kind == telemetry.EventCheckpointComplete && ev.Epoch > ckptEpoch {
			ckptEpoch = ev.Epoch
		}
	}
	for _, src := range []string{"coord", "w0", "w1", "w2"} {
		if !srcs[src] {
			t.Errorf("merged timeline has no events from %q (sources: %v)", src, srcs)
		}
	}
	for _, kind := range []string{
		telemetry.EventCheckpointStart, telemetry.EventCheckpointComplete,
		telemetry.EventRecoveryStart, telemetry.EventRecoveryRestart,
		telemetry.EventWorkerAttemptStart,
	} {
		if !kinds[kind] {
			t.Errorf("merged timeline missing %q events (kinds: %v)", kind, kinds)
		}
	}
	if ckptEpoch < 1 {
		t.Errorf("merged timeline has no completed checkpoint epoch >= 1")
	}
}
