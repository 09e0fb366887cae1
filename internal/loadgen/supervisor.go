package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// addrMarkers are the log lines through which mdserver and mdworker
// announce the address they bound: a gate starts every process on
// 127.0.0.1:0 and reads its port from here, so no two gates share one.
var addrMarkers = []string{"mdserver listening on ", "mdworker metrics on "}

// logTail bounds how many lines of a child's output are kept for the
// failure dump (the request log of a loadgate server runs to megabytes).
const logTail = 60

// Supervisor starts the mdserver and mdworker binaries that sit in one
// directory (cmd/mdload's own) and reaps every child on Close, on every
// exit path a gate takes. It also owns a scratch directory (the gates'
// journals), removed once the children are dead.
type Supervisor struct {
	dir, tmp string

	mu     sync.Mutex
	procs  []*proc
	closed bool
}

// NewSupervisor returns a supervisor for the binaries in dir.
func NewSupervisor(dir string) (*Supervisor, error) {
	tmp, err := os.MkdirTemp("", "mdload-gate-")
	return &Supervisor{dir: dir, tmp: tmp}, err
}

// proc is one supervised child.
type proc struct {
	label string
	cmd   *exec.Cmd
	out   *procLog
	done  chan struct{} // closed once the child is reaped
	code  int           // exit code, valid after done; -1 when killed by a signal
}

// procLog keeps a child's last output lines and hands the first
// address-marker line's address to addr.
type procLog struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	found   bool
	addr    chan string
}

func (l *procLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		for _, m := range addrMarkers {
			if _, rest, ok := strings.Cut(line, m); ok && !l.found {
				if f := strings.Fields(rest); len(f) > 0 {
					l.found = true
					l.addr <- strings.TrimSuffix(f[0], "/metrics")
				}
			}
		}
		if l.lines = append(l.lines, line); len(l.lines) > 2*logTail {
			l.lines = append(l.lines[:0], l.lines[len(l.lines)-logTail:]...)
		}
	}
}

// start launches bin from the supervisor's directory with extra
// environment entries and args; its output goes to the child's log.
func (s *Supervisor) start(bin string, env []string, args ...string) (*proc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("loadgen: supervisor closed")
	}
	p := &proc{
		label: bin + " " + strings.Join(args, " "),
		cmd:   exec.Command(filepath.Join(s.dir, bin), args...),
		out:   &procLog{addr: make(chan string, 1)},
		done:  make(chan struct{}),
	}
	if len(env) > 0 {
		p.label = strings.Join(env, " ") + " " + p.label
	}
	p.cmd.Env = append(os.Environ(), env...)
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("loadgen: starting %s: %w", bin, err)
	}
	go func() {
		_ = p.cmd.Wait()
		p.code = p.cmd.ProcessState.ExitCode()
		close(p.done)
	}()
	s.procs = append(s.procs, p)
	return p, nil
}

// addr waits for the child to log the address it bound.
func (p *proc) addr(timeout time.Duration) (string, error) {
	select {
	case a := <-p.out.addr:
		return a, nil
	case <-p.done:
		return "", fmt.Errorf("loadgen: %s exited (code %d) before logging its address", p.label, p.code)
	case <-time.After(timeout):
		return "", fmt.Errorf("loadgen: %s logged no address within %s", p.label, timeout)
	}
}

// wait waits up to timeout for the child to exit on its own and
// reports its exit code and whether it did exit.
func (p *proc) wait(timeout time.Duration) (int, bool) {
	select {
	case <-p.done:
		return p.code, true
	case <-time.After(timeout):
		return 0, false
	}
}

// kill SIGKILLs the child and reaps it: no drain, no deregistration.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// stop sends SIGTERM, the clean shutdown (a worker deregisters), and
// falls back to SIGKILL after ten seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	if _, ok := p.wait(10 * time.Second); !ok {
		p.kill()
	}
}

// Close SIGKILLs and reaps every child still running, then removes the
// scratch directory. It is safe to call more than once and from a
// signal handler while a gate runs; a gate started after it fails.
func (s *Supervisor) Close() {
	s.mu.Lock()
	s.closed = true
	procs := s.procs
	s.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(s.tmp)
}

// WriteLogs writes the last lines of every child's output, in start
// order, each under a header naming the command and how it ended.
func (s *Supervisor) WriteLogs(w io.Writer) {
	s.mu.Lock()
	procs := append([]*proc(nil), s.procs...)
	s.mu.Unlock()
	for _, p := range procs {
		state := "running"
		select {
		case <-p.done:
			state = fmt.Sprintf("exit %d", p.code)
		default:
		}
		p.out.mu.Lock()
		lines := p.out.lines
		if len(lines) > logTail {
			lines = lines[len(lines)-logTail:]
		}
		fmt.Fprintf(w, "--- %s (%s) ---\n", p.label, state)
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
		p.out.mu.Unlock()
	}
}
