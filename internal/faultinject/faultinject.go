// Package faultinject is an env-gated registry of named fault points.
// Production code plants points at its failure-relevant boundaries
// (fire-and-check one-liners); by default every point is inert — a
// single atomic load — so the instrumented paths cost nothing in
// normal operation. Activating a spec (programmatically in tests, or
// via the MDTASK_FAULTS environment variable in a live process) arms
// selected points to return errors, inject latency, truncate writes,
// or kill the process outright, which is how the WAL crash-point
// tests and `make smoke-crash` exercise recovery paths that healthy
// hardware never takes.
//
// Spec grammar (comma-separated arms):
//
//	point=kind[:arg][@n]
//
//	kind: error           the point returns ErrInjected
//	      crash           the point exits the process (code 137, like SIGKILL)
//	      sleep:DURATION  the point sleeps, then succeeds
//	      partial         the point asks its caller to tear the write
//	                      (callers that support it write a prefix and fail)
//	@n:   arm only the n-th hit of the point (1-based); default every hit
//
// Example:
//
//	MDTASK_FAULTS='wal.append=error@3,wal.sync=sleep:50ms' mdserver ...
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error armed `error` points return.
var ErrInjected = errors.New("faultinject: injected failure")

// ErrPartial is the error armed `partial` points return; callers that
// support torn writes emit a prefix of the payload before failing.
var ErrPartial = errors.New("faultinject: injected partial write")

// EnvVar is the environment variable ActivateFromEnv reads.
const EnvVar = "MDTASK_FAULTS"

type kind int

const (
	kindError kind = iota
	kindCrash
	kindSleep
	kindPartial
)

type arm struct {
	kind  kind
	sleep time.Duration
	nth   int64 // 0: every hit; >0: exactly that hit
}

var (
	// active short-circuits Fire when no point is armed: the only cost
	// of a planted point in a healthy process is this load.
	active atomic.Bool

	mu   sync.Mutex
	arms map[string][]arm
	hits map[string]*int64
)

// Activate arms the points named in spec (see package doc for the
// grammar), replacing any previous activation.
func Activate(spec string) error {
	parsed := make(map[string][]arm)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return fmt.Errorf("faultinject: malformed arm %q (want point=kind[:arg][@n])", part)
		}
		var a arm
		if at := strings.LastIndex(rest, "@"); at >= 0 {
			n, err := strconv.ParseInt(rest[at+1:], 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("faultinject: malformed hit count in %q", part)
			}
			a.nth = n
			rest = rest[:at]
		}
		k, arg, _ := strings.Cut(rest, ":")
		switch k {
		case "error":
			a.kind = kindError
		case "crash":
			a.kind = kindCrash
		case "partial":
			a.kind = kindPartial
		case "sleep":
			a.kind = kindSleep
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("faultinject: malformed sleep duration in %q: %v", part, err)
			}
			a.sleep = d
		default:
			return fmt.Errorf("faultinject: unknown kind %q in %q (want error|crash|sleep|partial)", k, part)
		}
		parsed[name] = append(parsed[name], a)
	}
	mu.Lock()
	defer mu.Unlock()
	arms = parsed
	hits = make(map[string]*int64)
	active.Store(len(parsed) > 0)
	return nil
}

// ActivateFromEnv arms the points named in $MDTASK_FAULTS; an empty or
// unset variable deactivates everything. Malformed specs are returned
// (callers typically make them fatal — a half-armed harness is worse
// than none).
func ActivateFromEnv() error {
	return Activate(os.Getenv(EnvVar))
}

// Deactivate disarms every point.
func Deactivate() {
	mu.Lock()
	defer mu.Unlock()
	arms, hits = nil, nil
	active.Store(false)
}

// Enabled reports whether any point is armed.
func Enabled() bool { return active.Load() }

// Fire checks the named point. Disarmed (the common case) it returns
// nil after one atomic load. Armed, it performs the configured fault:
// ErrInjected / ErrPartial returns, a sleep, or a process exit.
func Fire(name string) error {
	if !active.Load() {
		return nil
	}
	mu.Lock()
	as, ok := arms[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	c := hits[name]
	if c == nil {
		c = new(int64)
		hits[name] = c
	}
	n := atomic.AddInt64(c, 1)
	mu.Unlock()
	for _, a := range as {
		if a.nth != 0 && a.nth != n {
			continue
		}
		switch a.kind {
		case kindError:
			return ErrInjected
		case kindPartial:
			return ErrPartial
		case kindSleep:
			time.Sleep(a.sleep)
		case kindCrash:
			fmt.Fprintf(os.Stderr, "faultinject: crash point %q hit %d — exiting\n", name, n)
			os.Exit(137)
		}
	}
	return nil
}
