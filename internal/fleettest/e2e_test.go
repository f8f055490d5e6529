// Package fleettest is the multi-process end-to-end harness for the
// fleet: it builds the real clusterd and clusterlb binaries, boots a
// balancer over three workers plus a separate single-node oracle,
// drives a replay through the balancer while SIGKILLing one worker
// mid-load, and requires every reply to complete and match the oracle
// byte for byte (modulo the embedded wall-clock timing stats). A
// second replay after the kill must still be mostly cache hits: the
// consistent-hash ring only remaps the dead worker's arc, so the
// survivors' caches stay warm. A single-daemon test checks the cache
// and the graceful drain of one real clusterd process.
//
// scripts/check.sh runs these as its multi-process smoke.
package fleettest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

const dotDDG = `loop dotproduct
node 0 load a[i]
node 1 load b[i]
node 2 fmul
node 3 fadd s
edge 0 2 0
edge 1 2 0
edge 2 3 0
edge 3 3 1
end
`

// nsRE strips the wall-clock timing stats, the only bytes of a reply
// that legitimately differ between workers.
var nsRE = regexp.MustCompile(`"(mii|assign|sched)_ns":\d+`)

func normalize(b []byte) []byte {
	return nsRE.ReplaceAll(b, []byte(`"${1}_ns":0`))
}

// buildBinaries compiles clusterd and clusterlb into dir.
func buildBinaries(t *testing.T, dir string) (clusterd, clusterlb string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	clusterd = filepath.Join(dir, "clusterd")
	clusterlb = filepath.Join(dir, "clusterlb")
	for bin, pkg := range map[string]string{clusterd: "./cmd/clusterd", clusterlb: "./cmd/clusterlb"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return clusterd, clusterlb
}

// proc is one spawned daemon: its base URL (parsed from the
// "listening on http://..." line), the process handle and its log
// (stderr, safe to read once cmd.Wait has returned).
type proc struct {
	url string
	cmd *exec.Cmd
	log bytes.Buffer
}

// startProc launches bin and waits for its listening line.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...)}
	p.cmd.Stderr = &p.log
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})

	lines := bufio.NewScanner(stdout)
	deadline := time.After(10 * time.Second)
	found := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if _, after, ok := strings.Cut(lines.Text(), "listening on "); ok {
				found <- strings.TrimSpace(after)
				break
			}
		}
		close(found)
		// Keep draining so the child never blocks on a full pipe.
		for lines.Scan() {
		}
	}()
	select {
	case url, ok := <-found:
		if !ok || url == "" {
			t.Fatalf("%s exited without a listening line", bin)
		}
		p.url = url
	case <-deadline:
		t.Fatalf("%s did not print a listening line in time", bin)
	}
	return p
}

// kill SIGKILLs the process — no drain, the hard-failure case.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill %s: %v", p.url, err)
	}
	p.cmd.Wait()
}

// schedule posts one request and returns status, body, and X-Cache.
func schedule(t *testing.T, client *http.Client, base, name string) (int, []byte, string) {
	t.Helper()
	body, err := json.Marshal(map[string]string{"name": name, "ddg": dotDDG, "machine": "gp:2:2:1"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("schedule %s via %s: %v", name, base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Cache")
}

func TestFleetKillWorkerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short mode")
	}
	clusterd, clusterlb := buildBinaries(t, t.TempDir())

	w1 := startProc(t, clusterd, "-addr", "127.0.0.1:0")
	w2 := startProc(t, clusterd, "-addr", "127.0.0.1:0")
	w3 := startProc(t, clusterd, "-addr", "127.0.0.1:0")
	oracle := startProc(t, clusterd, "-addr", "127.0.0.1:0")
	lb := startProc(t, clusterlb,
		"-addr", "127.0.0.1:0",
		"-workers", w1.url+","+w2.url+","+w3.url,
		"-heartbeat", "250ms",
		"-hedge-min", "100ms",
	)

	client := &http.Client{Timeout: 30 * time.Second}

	// Replay: 30 distinct requests through the balancer, killing one
	// worker a third of the way in. Every request must complete and
	// match the single-node oracle.
	const total = 30
	const killAt = 10
	names := make([]string, total)
	for i := range names {
		names[i] = fmt.Sprintf("e2e-%d", i)
	}
	for i, name := range names {
		if i == killAt {
			w1.kill(t)
		}
		status, fleetBody, _ := schedule(t, client, lb.url, name)
		if status != http.StatusOK {
			t.Fatalf("request %d (%s) after kill=%v: status %d: %s",
				i, name, i >= killAt, status, fleetBody)
		}
		oStatus, oracleBody, _ := schedule(t, client, oracle.url, name)
		if oStatus != http.StatusOK {
			t.Fatalf("oracle request %d: status %d", i, oStatus)
		}
		if !bytes.Equal(normalize(fleetBody), normalize(oracleBody)) {
			t.Errorf("request %d (%s): fleet reply differs from single-node oracle\nfleet:  %s\noracle: %s",
				i, name, fleetBody, oracleBody)
		}
	}

	// Re-replay the full suite: the ring kept the survivors' arcs
	// stable across the kill, so well over half the requests must be
	// cache hits (2/3 of the keys never moved, and the post-kill
	// requests were computed on survivors).
	hits := 0
	for i, name := range names {
		status, body, xcache := schedule(t, client, lb.url, name)
		if status != http.StatusOK {
			t.Fatalf("re-replay %d: status %d: %s", i, status, body)
		}
		if xcache == "hit" || xcache == "coalesced" {
			hits++
		}
	}
	if hits*2 <= total {
		t.Errorf("post-kill re-replay hit rate %d/%d, want > 50%%", hits, total)
	}
	t.Logf("post-kill re-replay: %d/%d cache hits", hits, total)

	// The balancer noticed the death: statsz shows a rebalance and a
	// non-alive worker.
	resp, err := client.Get(lb.url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Fleet struct {
			Failovers      int64 `json:"failovers"`
			RingRebalances int64 `json:"ring_rebalances"`
		} `json:"fleet"`
		Workers []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Fleet.RingRebalances < 2 {
		t.Errorf("ring_rebalances = %d, want >= 2 (initial build + post-kill)", stats.Fleet.RingRebalances)
	}
	deadSeen := false
	for _, w := range stats.Workers {
		if w.ID == w1.url && w.State != "alive" {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Errorf("killed worker %s still reported alive: %+v", w1.url, stats.Workers)
	}
}

// TestDaemonCacheAndDrain boots one real clusterd: the same loop
// scheduled twice is a cache miss, then a hit with the same reply, and
// SIGTERM makes the process drain and exit by itself.
func TestDaemonCacheAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short mode")
	}
	clusterd, _ := buildBinaries(t, t.TempDir())
	d := startProc(t, clusterd, "-addr", "127.0.0.1:0")
	client := &http.Client{Timeout: 30 * time.Second}

	status, cold, xcache := schedule(t, client, d.url, "drain")
	if status != http.StatusOK || xcache != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q, want 200 miss: %s", status, xcache, cold)
	}
	status, warm, xcache := schedule(t, client, d.url, "drain")
	if status != http.StatusOK || xcache != "hit" {
		t.Fatalf("second request: status %d, X-Cache %q, want 200 hit: %s", status, xcache, warm)
	}
	if !bytes.Equal(normalize(cold), normalize(warm)) {
		t.Errorf("cached reply differs from the computed one\nmiss: %s\nhit:  %s", cold, warm)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("clusterd exited with %v after SIGTERM\n%s", err, d.log.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("clusterd still running 5s after SIGTERM")
	}
	if !strings.Contains(d.log.String(), "drained") {
		t.Errorf("clusterd log has no drain message:\n%s", d.log.String())
	}
}
