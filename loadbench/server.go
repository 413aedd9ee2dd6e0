package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one dpeserver child process on loopback, with its own
// fresh data directory. The load generator never shares a process with
// it: the server's CPU time and peak RSS read from /proc are its own.
type server struct {
	cmd        *exec.Cmd
	dataDir    string
	base       string // API base URL
	metricsURL string
	args       []string

	exited  chan struct{} // closed once cmd.Wait has returned
	waitErr error

	mu      sync.Mutex
	logTail []string // last lines of stderr, for error reports
}

// liveServers is every child not yet reaped, so an interrupt can kill
// them before the load generator exits.
var liveServers = struct {
	sync.Mutex
	m       map[*server]bool
	started []int // every pid ever started, for the benchmark's own test
}{m: make(map[*server]bool)}

// freePorts asks the kernel for n distinct unused loopback ports.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startServer launches bin on two free loopback ports and returns once
// the API answers /v1/healthz. store "segments" journals to dataDir with
// the segment store (fsync per appended record); "null" keeps state in
// memory only. Readiness is event-driven: the child's own "listening"
// and "metrics on" log lines, then one health round trip. The server
// runs with GOMAXPROCS = NumCPU, the default GOGC and no time-triggered
// compaction.
func startServer(ctx context.Context, bin, dataDir, store string, extra []string) (*server, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, fmt.Errorf("picking loopback ports: %w", err)
	}
	apiPort, metricsPort := ports[0], ports[1]
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(apiPort),
		"-metrics-addr", "127.0.0.1:" + strconv.Itoa(metricsPort),
		"-compact-interval", "0",
	}
	switch store {
	case "segments":
		args = append(args, "-data-dir", dataDir)
	case "null":
		args = append(args, "-store", "null")
	default:
		return nil, fmt.Errorf("unknown store %q", store)
	}
	args = append(args, extra...)
	s := &server{
		dataDir:    dataDir,
		base:       "http://127.0.0.1:" + strconv.Itoa(apiPort),
		metricsURL: "http://127.0.0.1:" + strconv.Itoa(metricsPort) + "/metrics",
		args:       args,
		exited:     make(chan struct{}),
	}
	if err := s.launch(ctx, bin); err != nil {
		return nil, err
	}
	return s, nil
}

// launch starts the process (again, for a restart on the same data
// directory) and waits for readiness.
func (s *server) launch(ctx context.Context, bin string) error {
	cmd := exec.Command(bin, s.args...)
	cmd.Env = childEnv()
	// The kernel kills the child if the load generator dies without
	// running its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	s.exited = make(chan struct{})
	liveServers.Lock()
	if err := cmd.Start(); err != nil {
		liveServers.Unlock()
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	s.cmd = cmd
	liveServers.m[s] = true
	liveServers.started = append(liveServers.started, cmd.Process.Pid)
	liveServers.Unlock()

	ready := make(chan struct{})
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		s.drainLog(stderr, ready)
	}()
	go func() {
		<-logDone // Wait must not close the pipe before the log is drained
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()

	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	select {
	case <-ready:
	case <-s.exited:
		s.kill() // already reaped; deregisters it
		return fmt.Errorf("dpeserver exited during start-up (%v): %s", s.waitErr, s.tail())
	case <-timer.C:
		s.kill()
		return fmt.Errorf("dpeserver not ready after 60s: %s", s.tail())
	case <-ctx.Done():
		s.kill()
		return ctx.Err()
	}
	if err := s.health(ctx); err != nil {
		s.kill()
		return err
	}
	return nil
}

// drainLog consumes the child's stderr for its whole life (the access
// log writes one line per request, and a full pipe would stall the
// server), closing ready once both listeners have announced themselves.
func (s *server) drainLog(r io.Reader, ready chan struct{}) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	api, metrics := false, false
	for sc.Scan() {
		line := sc.Text()
		if !api || !metrics {
			api = api || strings.Contains(line, "dpeserver: listening on")
			metrics = metrics || strings.Contains(line, "dpeserver: metrics on")
			if api && metrics {
				close(ready)
			}
		}
		if strings.Contains(line, "level=INFO") {
			continue // per-request access log
		}
		s.mu.Lock()
		s.logTail = append(s.logTail, line)
		if len(s.logTail) > 20 {
			s.logTail = s.logTail[1:]
		}
		s.mu.Unlock()
	}
	io.Copy(io.Discard, r)
}

// health confirms both listeners accept requests. The "listening" log
// line is printed just before the listener binds, so a refused
// connection inside that window is retried without sleeping.
func (s *server) health(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, url := range []string{s.base + "/v1/healthz", s.metricsURL} {
		for {
			err := getDiscard(ctx, url)
			if err == nil {
				break
			}
			if !errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) {
				return fmt.Errorf("dpeserver health check %s: %w", url, err)
			}
			runtime.Gosched()
		}
	}
	return nil
}

func getDiscard(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// childEnv passes the environment through with GOMAXPROCS pinned to the
// machine's CPU count and GOGC left at its default.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, "GOMAXPROCS=") || strings.HasPrefix(kv, "GOMEMLIMIT=") {
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logTail, " | ")
}

// kill sends SIGKILL and waits until the process is reaped.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
	liveServers.Lock()
	delete(liveServers.m, s)
	liveServers.Unlock()
}

// close kills the process and removes its data directory.
func (s *server) close() {
	s.kill()
	os.RemoveAll(s.dataDir)
}

// killAllServers is the interrupt path: every live child is killed and
// its data directory removed.
func killAllServers() {
	liveServers.Lock()
	all := make([]*server, 0, len(liveServers.m))
	for s := range liveServers.m {
		all = append(all, s)
	}
	liveServers.Unlock()
	for _, s := range all {
		s.close()
	}
}

// procStat is what /proc says about the server process.
type procStat struct {
	cpu     time.Duration // user + system
	peakRSS int64         // VmHWM, bytes
}

func (s *server) proc() (procStat, error) {
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ, 100
	// on Linux).
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	out := procStat{cpu: time.Duration(utime+stime) * 10 * time.Millisecond}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return procStat{}, fmt.Errorf("parsing VmHWM: %w", err)
			}
			out.peakRSS = kb << 10
		}
	}
	return out, nil
}

// resetPeak sets the server's peak RSS (VmHWM) back to its current RSS,
// so the next read covers only what ran since.
func (s *server) resetPeak() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", s.cmd.Process.Pid), []byte("5"), 0)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// checkRoom refuses to start when the file system holding dir has less
// than need bytes available.
func checkRoom(dir string, need int64) error {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	if avail := int64(st.Bavail) * int64(st.Bsize); avail < need {
		return fmt.Errorf("%s has %d MB free; this workload journals up to %d MB", dir, avail>>20, need>>20)
	}
	return nil
}
