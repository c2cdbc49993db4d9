package main

import (
	"bufio"
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
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the directory whose
// go.mod declares the ramr module: the benchmark runs from the root of
// a checkout (run.sh) or from bench/ (go run -C bench, go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module ramr" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module ramr above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildDir is where everything the benchmark builds or writes goes; it
// is listed in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildDaemons compiles cmd/ramrd and cmd/ramrc from the checkout into
// the build directory. A second call is an up-to-date check.
func buildDaemons(root string) error {
	bin := filepath.Join(buildDir(root), "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ramrd", "./cmd/ramrc")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building ramrd and ramrc: %v\n%s", err, out)
	}
	return nil
}

// daemon is one child process of the benchmark.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the stderr reader saw EOF

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// live tracks every running child so that any exit path stops them.
var live struct {
	sync.Mutex
	ds map[*daemon]struct{}
}

// stopAll stops every child still running; main defers it and the
// signal handler calls it.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.ds))
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startDaemon boots bin with args plus -addr 127.0.0.1:0 and
// -log-format json, reads the listen URL from the "serving" log line
// and waits for /readyz.
func startDaemon(root, name string, args ...string) (*daemon, error) {
	bin := filepath.Join(buildDir(root), "bin", name)
	args = append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = buildDir(root)
	setChildAttrs(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if live.ds == nil {
		live.ds = map[*daemon]struct{}{}
	}
	live.ds[d] = struct{}{}
	live.Unlock()

	urlc := make(chan string, 1)
	go d.readLog(stderr, urlc)
	select {
	case d.url = <-urlc:
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("%s exited before serving:\n%s", name, d.logTail())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not log a serving line within 20s:\n%s", name, d.logTail())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s at %s never became ready: %v", name, d.url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readLog drains the child's structured log so it never blocks on a
// full pipe, publishing the URL of the "serving" line and keeping a
// short tail for error reports.
func (d *daemon) readLog(r io.Reader, urlc chan<- string) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			var rec struct {
				Msg string `json:"msg"`
				URL string `json:"url"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.URL != "" && strings.HasSuffix(rec.Msg, "serving") {
				urlc <- rec.URL
				sent = true
			}
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// peakRSSMB reads the child's resident-set high-water mark.
func (d *daemon) peakRSSMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

// stop terminates the child (SIGTERM, then SIGKILL after the drain
// timeout) and waits until it has ended. Safe to call twice.
func (d *daemon) stop() {
	live.Lock()
	_, running := live.ds[d]
	delete(live.ds, d)
	live.Unlock()
	if !running {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.cmd.Wait()
}
