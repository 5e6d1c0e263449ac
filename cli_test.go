package schedsearch_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"schedsearch"
	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/trace"
	"schedsearch/internal/workload"
)

// binDir holds the commands the CLI tests run, each built once per
// test run (buildCmd).
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "schedsearch-cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	buildMu sync.Mutex
	built   = map[string]error{}
)

// buildCmd compiles one of the repo's commands into binDir, the first
// time a test asks for it, and returns the binary path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	bin := filepath.Join(binDir, name)
	err, ok := built[name]
	if !ok {
		if out, berr := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); berr != nil {
			err = fmt.Errorf("%v\n%s", berr, out)
		}
		built[name] = err
	}
	if err != nil {
		t.Fatalf("go build ./cmd/%s: %v", name, err)
	}
	return bin
}

// TestSchedsimJSON runs the schedsim binary with -json on the flags of
// the DDS/lxf/dynB 7/03 golden: the engine-driven replay must report
// the schedule and the search counts sim.Run pinned there.
func TestSchedsimJSON(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("builds and runs the schedsim binary")
	}
	bin := buildCmd(t, "schedsim")
	out, err := exec.Command(bin,
		"-json", "-seed", "1", "-month", "7/03", "-scale", "0.05", "-policy", "DDS/lxf/dynB", "-L", "200").Output()
	if err != nil {
		t.Fatalf("schedsim -json: %v", err)
	}
	var got, want engine.Metrics
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("output is not /v1/metrics JSON: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "DDS_lxf_dynB-7_03.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.Policy != want.Policy || got.Capacity != want.Capacity || got.Jobs != want.Jobs || got.Summary != want.Summary {
		t.Errorf("schedsim -json reports\n%s/%d nodes %+v %+v\nthe golden\n%s/%d nodes %+v %+v",
			got.Policy, got.Capacity, got.Jobs, got.Summary, want.Policy, want.Capacity, want.Jobs, want.Summary)
	}
	counts := func(c engine.Counters) [5]int64 {
		return [5]int64{c.Decisions, c.SearchNodes, c.SearchLeaves, c.BudgetHits, c.SearchNodesToBest}
	}
	if g, w := counts(got.Engine), counts(want.Engine); g != w || w[1] == 0 {
		t.Errorf("decisions, search nodes, leaves, budget hits, nodes to best: %v, the golden %v", g, w)
	}
}

// TestSchedsimAudit: schedsim -audit re-decides a journal written by a
// virtual-clock replay of 7/03: under the journaling policy it prints
// one record per decision the engine made, naming the policy and
// starting every job once; under another policy it diverges and exits 1.
func TestSchedsimAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the schedsim binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, "schedsim")
	in, _, err := schedsearch.LoadInput("", 0, workload.Config{Seed: 1, JobScale: 0.1}, "7/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "7-03.journal")
	fj, err := engine.OpenFileJournal(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := schedsearch.ParsePolicy("DDS/lxf/dynB", 200)
	if err != nil {
		t.Fatal(err)
	}
	vc := engine.NewVirtualClock()
	e, err := engine.New(engine.Config{Capacity: in.Capacity, Policy: pol, Clock: vc, Journal: fj})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		vc.AfterFunc(j.Submit, func() {
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "-audit", path, "-policy", "DDS/lxf/dynB", "-L", "200").Output()
	if err != nil {
		t.Fatalf("schedsim -audit: %v", err)
	}
	var audit struct {
		Total     int64 `json:"total"`
		Decisions []struct {
			Policy  string `json:"policy"`
			Started []int  `json:"started"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal(out, &audit); err != nil {
		t.Fatalf("output is not the audit document: %v\n%s", err, out)
	}
	if d := e.Metrics().Engine.Decisions; d == 0 || audit.Total != d || int64(len(audit.Decisions)) != d {
		t.Fatalf("audit total %d with %d records, the engine made %d decisions", audit.Total, len(audit.Decisions), d)
	}
	started := map[int]int{}
	for i, d := range audit.Decisions {
		if d.Policy != "DDS/lxf/dynB" {
			t.Fatalf("record %d: policy %q, want DDS/lxf/dynB", i, d.Policy)
		}
		for _, id := range d.Started {
			started[id]++
		}
	}
	for _, j := range in.Jobs {
		if started[j.ID] != 1 {
			t.Fatalf("job %d started in %d audited decisions", j.ID, started[j.ID])
		}
	}

	out, err = exec.Command(bin, "-audit", path, "-policy", "FCFS-backfill").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "started") {
		t.Fatalf("schedsim -audit -policy FCFS-backfill: %v, output %q; want exit 1 naming the divergence", err, out)
	}
	// The journal fixes the workload and its engine: the month, output
	// and replay flags have nothing to act on.
	for _, tc := range []struct{ args, names string }{
		{"-json -month 7/03", "-json, -month"},
		{"-shards 2 -rebalance 60 -trace-out t.json", "-rebalance, -shards, -trace-out"},
	} {
		out, err = exec.Command(bin, append([]string{"-audit", path}, strings.Fields(tc.args)...)...).CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.names) {
			t.Fatalf("schedsim -audit %s: %v, output %q; want exit 2 naming %s", tc.args, err, out, tc.names)
		}
	}
}

// TestSchedsimSWFRejectsMonthFlags: the generated-month flags have
// nothing to act on in a trace replay, so schedsim refuses them instead
// of printing the run without them.
func TestSchedsimSWFRejectsMonthFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the schedsim binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, "schedsim")
	swf := filepath.Join(dir, "t.swf")
	jobs := []job.Job{{ID: 1, Submit: 0, Nodes: 4, Runtime: 600, Request: 900, User: 1}}
	if err := trace.WriteSWFFile(swf, jobs, trace.Header{MaxNodes: 16}); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-swf", swf, "-load", "0.9").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-load") {
		t.Fatalf("schedsim -swf -load 0.9: exit %v, output %q; want a refusal naming -load", err, out)
	}
}

// TestSchedsimReplayHonoursCapacity replays a generated month on a
// machine larger than the 128 nodes its jobs are drawn for — the
// benchmark's 4 x 128 federation, from the command line: the report
// must show the machine that was asked for, not the suite's.
func TestSchedsimReplayHonoursCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the schedsim binary")
	}
	bin := buildCmd(t, "schedsim")
	out, err := exec.Command(bin,
		"-month", "7/03", "-scale", "0.05", "-load", "3.6", "-L", "200",
		"-capacity", "512", "-shards", "4", "-json").Output()
	if err != nil {
		t.Fatalf("schedsim -shards 4: %v", err)
	}
	// Two JSON documents: the whole-machine metrics, then the
	// federation report.
	dec := json.NewDecoder(bytes.NewReader(out))
	var m engine.Metrics
	var fm engine.FederationMetrics
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("metrics: %v\n%s", err, out)
	}
	if err := dec.Decode(&fm); err != nil {
		t.Fatalf("federation report: %v\n%s", err, out)
	}
	if m.Capacity != 512 || m.Jobs.Done == 0 {
		t.Errorf("replayed on %d nodes with %d jobs done, want 512 nodes", m.Capacity, m.Jobs.Done)
	}
	if fm.Placement != "best-fit" || len(fm.PerShard) != 4 {
		t.Fatalf("federation report: %q placement, %d shards", fm.Placement, len(fm.PerShard))
	}
	for _, sh := range fm.PerShard {
		if sh.Capacity != 128 {
			t.Errorf("shard %d has %d nodes, want 128", sh.Shard, sh.Capacity)
		}
	}
}

// scheddProc is one schedd process a CLI test started.
type scheddProc struct {
	cmd    *exec.Cmd
	line   string // its start-up line
	base   string // http://HOST:PORT, from that line
	stdout *bufio.Reader
	stderr *bytes.Buffer
}

// startSchedd runs schedd on a loopback port with args and waits for
// its "… listening on HOST:PORT" line. The process is killed when the
// test ends, if it has not exited by then.
func startSchedd(t *testing.T, args ...string) *scheddProc {
	t.Helper()
	cmd := exec.Command(buildCmd(t, "schedd"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &scheddProc{cmd: cmd, stdout: bufio.NewReader(stdout), stderr: &bytes.Buffer{}}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	if p.line, err = p.stdout.ReadString('\n'); err != nil {
		t.Fatalf("schedd %s: reading listen line: %v (stderr: %s)", strings.Join(args, " "), err, p.stderr)
	}
	i := strings.LastIndex(p.line, "listening on ")
	if i < 0 {
		t.Fatalf("unexpected startup line %q", p.line)
	}
	p.base = "http://" + strings.TrimSpace(p.line[i+len("listening on "):])
	return p
}

// exit waits until deadline for the process to exit by itself and
// returns what it printed on stdout after its start-up line. Stdout is
// read to EOF before Wait, which closes the pipe and would discard the
// buffered output.
func (p *scheddProc) exit(deadline time.Time) ([]byte, error) {
	restCh := make(chan []byte, 1)
	go func() {
		rest, _ := io.ReadAll(p.stdout)
		restCh <- rest
	}()
	select {
	case rest := <-restCh:
		if err := p.cmd.Wait(); err != nil {
			return rest, fmt.Errorf("%v (stderr: %s)", err, p.stderr)
		}
		return rest, nil
	case <-time.After(time.Until(deadline)):
		return nil, errors.New("did not exit")
	}
}

// TestScheddJoin is the end-to-end multi-process federation test: four
// plain shard daemons, each with its own journal, and one -join front
// over them on real TCP. The whole cluster schedules submitted jobs,
// reports per-shard readiness and federation metrics, then drains
// through the front, and all five processes exit cleanly.
func TestScheddJoin(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("builds and runs a 5-process schedd cluster")
	}
	dir := t.TempDir()
	var shardProcs []*scheddProc
	var urls []string
	for s := 0; s < 4; s++ {
		p := startSchedd(t, "-capacity", "8", "-journal", filepath.Join(dir, fmt.Sprintf("join.journal.shard-%d", s)),
			"-policy", "DDS/lxf/dynB", "-L", "200", "-speedup", "600")
		shardProcs = append(shardProcs, p)
		urls = append(urls, p.base)
	}
	front := startSchedd(t, "-join", strings.Join(urls, ","), "-rebalance", "30", "-speedup", "600")
	if !strings.Contains(front.line, "4 remote shards") {
		t.Fatalf("startup line %q does not announce the remote federation", front.line)
	}
	base := front.base

	getJSON := func(path string, wantStatus int) map[string]any {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if wantStatus != 0 && resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return m
	}

	// Readiness must carry the per-shard breakdown: four healthy shard
	// processes behind the front-end.
	ready := getJSON("/v1/readyz", http.StatusOK)
	if ready["ready"] != true {
		t.Fatalf("readyz: %v", ready)
	}
	shards, _ := ready["shards"].([]any)
	if len(shards) != 4 {
		t.Fatalf("readyz shards %v, want 4", ready["shards"])
	}
	for _, sh := range shards {
		if sh.(map[string]any)["healthy"] != true {
			t.Fatalf("unhealthy shard at boot: %v", sh)
		}
	}

	// Each shard partition holds 8 nodes. Four 8-node jobs fill the
	// machine, one per shard, so the four 4-node jobs after them must
	// wait. The first 8-node job ends soonest, so best-fit stacks all
	// four behind it, and the last and longest makes that shard's
	// backlog the largest by more than a short job's share: the
	// rebalance pass must move a waiting job off it. Every job must
	// complete on some shard, over the wire.
	var ids []int
	for k, spec := range [][2]int{{8, 300}, {8, 900}, {8, 900}, {8, 900}, {4, 150}, {4, 150}, {4, 150}, {4, 1200}} {
		body := fmt.Sprintf(`{"nodes":%d,"runtime_s":%d,"user":%d}`, spec[0], spec[1], k)
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("POST /v1/jobs: bad JSON: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			t.Fatalf("POST /v1/jobs: %d %v", resp.StatusCode, m)
		}
		ids = append(ids, int(m["id"].(float64)))
	}
	deadline := time.Now().Add(30 * time.Second)
	waited := 0
	for _, id := range ids {
		for {
			st := getJSON(fmt.Sprintf("/v1/jobs/%d", id), 0)
			if st["state"] == "done" {
				if st["wait_s"].(float64) >= 150 { // half a runtime, far past the wall clock's lag
					waited++
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in state %v", id, st["state"])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if waited == 0 {
		t.Fatal("no job waited for nodes: the federation never queued one")
	}

	fedRep := getJSON("/v1/federation", http.StatusOK)
	if fedRep["shards"] != float64(4) {
		t.Fatalf("federation report %v, want 4 shards", fedRep["shards"])
	}

	// Drain: the front forwards it to every shard, which then exits
	// once its machine is empty; the front exits after them.
	resp, err := http.Post(base+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /v1/drain: %v", err)
	}
	resp.Body.Close()
	deadline = time.Now().Add(30 * time.Second)
	for k, p := range append(shardProcs, front) {
		if _, err := p.exit(deadline); err != nil {
			t.Fatalf("schedd process %d after the drain: %v", k, err)
		}
	}

	// Each shard daemon journaled its own events, and each journal,
	// written on the wall clock with what the rebalance pass moved out
	// of it (an EvWithdraw) and into it, re-decides clean under the
	// shards' policy: every EvDecide, some of which started nothing
	// while a job waited.
	sim := buildCmd(t, "schedsim")
	idle, withdraws := 0, 0
	for s := 0; s < 4; s++ {
		path := filepath.Join(dir, fmt.Sprintf("join.journal.shard-%d", s))
		cp, err := engine.LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("shard %d journal: %v", s, err)
		}
		decides := 0
		for _, ev := range cp.Events {
			switch ev.Kind {
			case engine.EvDecide:
				decides++
				if len(ev.Starts) == 0 {
					idle++
				}
			case engine.EvWithdraw:
				withdraws++
			}
		}
		if decides == 0 {
			t.Fatalf("shard %d journal holds no decision", s)
		}
		out, err := exec.Command(sim, "-audit", path, "-capacity", "8", "-policy", "DDS/lxf/dynB", "-L", "200").CombinedOutput()
		var audit struct {
			Total int `json:"total"`
		}
		if err == nil {
			err = json.Unmarshal(out, &audit)
		}
		if err != nil || audit.Total != decides {
			raw, _ := os.ReadFile(path)
			t.Fatalf("schedsim -audit shard %d: %v, re-decided %d of %d decisions\n%s\njournal:\n%s", s, err, audit.Total, decides, out, raw)
		}
	}
	if idle == 0 {
		t.Fatal("no shard journal holds a decision that started nothing")
	}
	if withdraws == 0 {
		t.Fatal("no shard journal holds a withdrawal: the rebalance pass never migrated a job")
	}
}

// TestScheddHTTP is the end-to-end acceptance test: start the daemon
// with the paper's best search policy, submit jobs over HTTP, watch
// them schedule, read coherent metrics, then drain and wait for a
// clean exit.
func TestScheddHTTP(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("builds and runs the schedd binary")
	}
	// 600 engine seconds per wall second: the 300-second jobs below
	// complete in ~0.5s wall.
	d := startSchedd(t, "-policy", "DDS/lxf/dynB", "-L", "500", "-capacity", "16", "-speedup", "600")
	base := d.base

	post := func(path, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("POST %s: bad JSON: %v", path, err)
		}
		if resp.StatusCode >= 400 {
			t.Fatalf("POST %s: %d %v", path, resp.StatusCode, m)
		}
		return m
	}
	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return m
	}

	// Submit a handful of jobs; the machine (16 nodes) can run two of
	// the 8-node jobs at once, so some must queue.
	var ids []int
	for k := 0; k < 4; k++ {
		r := post("/v1/jobs", `{"nodes":8,"runtime_s":300,"user":1}`)
		ids = append(ids, int(r["id"].(float64)))
	}

	// Every job must eventually complete (4 × 300s at 600× ≈ 1s wall).
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			st := get(fmt.Sprintf("/v1/jobs/%d", id))
			if st["state"] == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in state %v", id, st["state"])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	met := get("/v1/metrics")
	if met["policy"] != "DDS/lxf/dynB" {
		t.Errorf("metrics policy %v", met["policy"])
	}
	jobs := met["jobs"].(map[string]any)
	if jobs["done"] != float64(4) {
		t.Errorf("metrics jobs %v, want 4 done", jobs)
	}
	summary := met["summary"].(map[string]any)
	if summary["jobs"] != float64(4) || summary["avg_bounded_slowdown"].(float64) < 1 {
		t.Errorf("incoherent summary %v", summary)
	}
	eng := met["engine"].(map[string]any)
	if eng["decisions"].(float64) < 1 || eng["search_nodes"].(float64) < 1 {
		t.Errorf("incoherent engine counters %v", eng)
	}

	// Drain: the daemon must refuse new work, then exit cleanly and
	// print final metrics on stdout.
	post("/v1/drain", "")
	rest, err := d.exit(time.Now().Add(30 * time.Second))
	if err != nil {
		t.Fatalf("schedd after the drain: %v", err)
	}
	var final engine.Metrics
	if err := json.Unmarshal(rest, &final); err != nil {
		t.Fatalf("final metrics not JSON: %v\n%q", err, rest)
	}
	if !final.Draining || final.Jobs.Done != 4 {
		t.Errorf("final metrics %+v, want draining with 4 done", final)
	}
}
