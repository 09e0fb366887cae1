package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one mdserver child process in its production configuration.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	stderr  bytes.Buffer
	exited  chan struct{} // closed once Wait has returned
}

// startServer execs bin on a free loopback port with a journal in
// dataDir and returns once /healthz answers 200.
func startServer(ctx context.Context, hc *http.Client, bin, dataDir string, traceOn bool) (*server, error) {
	// A :0 probe picks the port; the window between closing the probe
	// and the child binding it is the price of not patching the server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	trace := "on"
	if !traceOn {
		trace = "off"
	}
	s := &server{base: "http://" + addr, dataDir: dataDir, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-workers", "2", "-fsync", "always",
		"-trace", trace, "-data-dir", dataDir)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a server we signal ourselves carries no news
		close(s.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _, _, err := fetch(ctx, hc, http.MethodGet, s.base+"/healthz", nil); err == nil && code == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("mdserver exited during start-up: %s", s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mdserver not healthy after 10s: %s", s.stderr.String())
		}
	}
}

// stop asks the server to shut down cleanly (so the journal it leaves
// behind ends with its shutdown marker), kills it if it lingers, and
// returns once the process is reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// procClockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times: 100
// on every Linux platform Go supports.
const procClockTick = 100

// cpuSeconds is the utime+stime of a process so far, from
// /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	return (ut + st) / procClockTick, nil
}

// rssMB reads one resident-set field of /proc/<pid>/status in MB:
// "VmRSS" (now) or "VmHWM" (the high-water mark).
func rssMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}
