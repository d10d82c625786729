package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running cmd/server binary.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
	err  error // Wait's result, set before done closes
}

// budgetRPS arms cmd/server's rate limiters far above any rate two
// connections on two cores can offer, so the limiter code runs on every
// request and never rejects one; any 429 or 503 is a failure.
const budgetRPS = "1000000"

// serverArgs returns the flags every server of workload w runs with.
func serverArgs(w workload, addr, dbDir string) []string {
	return []string{
		"-addr", addr,
		"-seed", strconv.Itoa(corpusSeed),
		"-scale", strconv.FormatFloat(w.Scale, 'f', -1, 64),
		"-db", dbDir,
		"-rate-limit-rps", budgetRPS,
		"-rate-limit-mutation-rps", budgetRPS,
		"-max-inflight", "64",
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer starts cmd/server with the flags of workload w on dbDir and waits
// until /api/health answers 200. It returns the time from the start of
// the process to that answer.
func startServer(w workload, dbDir, logPath string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(serverBin, serverArgs(w, addr, dbDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for deadline := t0.Add(60 * time.Second); time.Now().Before(deadline); {
		resp, err := client.Get(p.base + "/api/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("server exited during start-up (%v); log: %s", p.err, tail(logPath))
		case <-time.After(2 * time.Millisecond):
		}
	}
	p.stop()
	return nil, 0, fmt.Errorf("server never answered /api/health; log: %s", tail(logPath))
}

// stop ends the server with SIGTERM, or SIGKILL when it does not drain
// within 20 s, and waits for it to exit.
func (p *serverProc) stop() error {
	defer p.log.Close()
	select {
	case <-p.done:
		return fmt.Errorf("server exited early: %v", p.err)
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.done:
		return p.err
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return errors.New("server did not drain within 20s")
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times, on
// every Linux platform Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// procHWM returns process pid's peak resident set size in MB.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// health is the part of /api/health the benchmark reads.
type health struct {
	Recipes     int `json:"recipes"`
	ResultCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"resultCache"`
	Derived map[string]struct {
		Rebuilds     uint64 `json:"rebuilds"`
		TotalBuildNs int64  `json:"totalBuildNs"`
	} `json:"derived"`
}

func getHealth(client *http.Client, base string) (health, error) {
	var h health
	resp, err := client.Get(base + "/api/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/api/health: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// prepare returns the directory holding workload w's prepared corpus,
// generating it with the server binary the first time: the server
// generates the corpus at the workload's scale, saves it and is stopped.
// Every run starts its servers on copies of this directory, so they all
// start from byte-identical state. The directory is named after a hash
// of the server binary too, so a server built from other sources never
// starts on a corpus another build generated and saved.
func prepare(w workload) (string, error) {
	bin, err := os.ReadFile(serverBin)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(workDir, "prep", fmt.Sprintf("%s-%d-%g-%x", w.Name, corpusSeed, w.Scale, sum[:8]))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	p, _, err := startServer(w, filepath.Join(tmp, "db"), filepath.Join(tmp, "server.log"))
	if err != nil {
		return "", fmt.Errorf("preparing %s: %w", w.Name, err)
	}
	if err := p.stop(); err != nil {
		return "", fmt.Errorf("preparing %s: %w", w.Name, err)
	}
	if err := os.Remove(filepath.Join(tmp, "server.log")); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copying %s: %s is not a regular file", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	raw, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// selfCPU returns the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
