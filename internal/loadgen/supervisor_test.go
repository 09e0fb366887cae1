package loadgen

import (
	"strings"
	"testing"
	"time"
)

// TestProcLogAddress: the address comes from the first marker line,
// even when the line arrives in pieces, and only the tail is kept.
func TestProcLogAddress(t *testing.T) {
	l := &procLog{addr: make(chan string, 1)}
	for _, chunk := range []string{"boot\n2026/01/02 mdworker metr", "ics on 127.0.0.1:4242/metrics\n",
		"mdserver listening on 127.0.0.1:1 (later)\n"} {
		l.Write([]byte(chunk))
	}
	if got := <-l.addr; got != "127.0.0.1:4242" {
		t.Fatalf("address %q, want 127.0.0.1:4242", got)
	}
	for i := 0; i < 5*logTail; i++ {
		l.Write([]byte("line\n"))
	}
	if n := len(l.lines); n > 2*logTail {
		t.Fatalf("%d lines kept, want at most %d", n, 2*logTail)
	}
}

// TestSupervisorReaps starts a child that logs an address and then
// blocks; Close must kill and reap it, and a start after Close fails.
func TestSupervisorReaps(t *testing.T) {
	sup, err := NewSupervisor("/bin")
	if err != nil {
		t.Fatal(err)
	}
	p, err := sup.start("sh", nil, "-c", "echo 'mdserver listening on 127.0.0.1:7 (test)'; exec sleep 60")
	if err != nil {
		t.Skipf("no /bin/sh: %v", err)
	}
	addr, err := p.addr(10 * time.Second)
	if err != nil || addr != "127.0.0.1:7" {
		t.Fatalf("addr = %q, %v", addr, err)
	}
	if _, exited := p.wait(10 * time.Millisecond); exited {
		t.Fatal("child exited before Close")
	}
	sup.Close()
	if code, exited := p.wait(time.Second); !exited || code != -1 {
		t.Fatalf("after Close: exited %v code %d, want killed", exited, code)
	}
	if _, err := sup.start("sh", nil, "-c", "true"); err == nil {
		t.Fatal("start after Close succeeded")
	}
	var b strings.Builder
	sup.WriteLogs(&b)
	if !strings.Contains(b.String(), "listening on 127.0.0.1:7") || !strings.Contains(b.String(), "exit -1") {
		t.Fatalf("logs:\n%s", b.String())
	}
}
