package main

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// findRoot walks up from the working directory to the module that holds
// the daemons' sources; the benchmark is run from the repository root, from
// benchmark/ (go -C), and from the test binary's package directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "linkpredd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/linkpredd not found in any parent directory: run from the repository checkout")
		}
		dir = parent
	}
}

// env is where one invocation keeps its files: binaries under
// <root>/.bench_build/bin, everything a run writes (traces, WAL dirs,
// daemon logs) under a fresh directory beside it, kept logs and trace dumps
// under benchmark/out. Nothing is written outside the checkout.
type env struct {
	root   string
	binDir string
	runDir string
	outDir string

	mu    sync.Mutex
	procs []*proc
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, binDir: filepath.Join(build, "bin"), outDir: filepath.Join(root, "benchmark", "out")}
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return nil, err
	}
	if e.runDir, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// buildDaemons compiles linkpredd and linkpredr from the checkout's
// sources. Build time is reported but is part of no metric.
func (e *env) buildDaemons() (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.binDir+string(os.PathSeparator), "./cmd/linkpredd", "./cmd/linkpredr")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build daemons: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// close kills whatever is still running and removes the run directory. With
// keepLogs the daemons' output is first copied to benchmark/out.
func (e *env) close(keepLogs bool) {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	if keepLogs {
		if err := os.MkdirAll(e.outDir, 0o755); err == nil {
			logs, _ := filepath.Glob(filepath.Join(e.runDir, "*.log"))
			for _, l := range logs {
				if data, err := os.ReadFile(l); err == nil {
					_ = os.WriteFile(filepath.Join(e.outDir, filepath.Base(l)), data, 0o644) // best effort: the run already failed
				}
			}
			fmt.Fprintf(os.Stderr, "benchmark: daemon logs kept in %s\n", e.outDir)
		}
	}
	_ = os.RemoveAll(e.runDir) // scratch: a leftover is ignored by git and harmless
}

// proc is one spawned daemon.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it, so a collision is possible but needs
// another process to grab the same ephemeral port within milliseconds.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts a daemon on a free port with its output in the run
// directory, and registers it for reaping.
func (e *env) spawn(name, bin string, args ...string) (*proc, error) {
	// Pdeathsig is delivered when the *thread* that forked the child exits,
	// so the forking goroutine pins itself to its thread for good. Every
	// spawn happens on the goroutine that drives the run (main, or the
	// test's), whose thread then lives as long as the daemons must.
	runtime.LockOSThread()
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(e.binDir, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the harness dies without running its own cleanup (a panic on
	// another goroutine, the driver's SIGKILL on a timeout) the kernel
	// kills the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we kill is not information
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	return p, nil
}

// kill SIGKILLs the daemon and waits until it is reaped. Idempotent.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.done
	p.log.Close()
}

// exited reports whether the daemon has already terminated on its own.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// waitHealthy polls /healthz until it answers 200, the daemon exits, or ctx
// ends.
func (p *proc) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		if p.exited() {
			return fmt.Errorf("%s exited during boot", p.name)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			_, rerr := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// cpuMS returns the user+system CPU time the process has used, from
// /proc/<pid>/stat.
func (p *proc) cpuMS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// hwmMiB returns the process's peak resident set (VmHWM) in MiB.
func (p *proc) hwmMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}
