package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadTransferBound covers the worker side of the transfer-size
// contract: a download longer than the transfer limit errors out instead
// of landing in memory (or being silently truncated), and a payload
// exactly at the limit passes through intact.
func TestReadTransferBound(t *testing.T) {
	w := &Worker{o: WorkerOptions{transferLimit: 64}}
	if _, err := w.readTransfer(bytes.NewReader(make([]byte, 65))); err == nil {
		t.Fatal("oversized transfer read without error")
	} else if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized transfer: %v, want a transfer-limit error", err)
	}
	data, err := w.readTransfer(bytes.NewReader(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 64 {
		t.Fatalf("at-limit transfer read %d bytes, want 64", len(data))
	}
}

// TestWorkerFacingBodyBounds is the regression test for the unbounded
// coordinator decodes: oversized register and result bodies must
// answer 413 instead of being buffered, while in-bound requests keep
// working. Heartbeats carry no body; lease requests carry none either.
func TestWorkerFacingBodyBounds(t *testing.T) {
	c := NewCoordinator(Options{controlLimit: 256, resultLimit: 1024})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/v1/workers", `{"name":"`+strings.Repeat("n", 4096)+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized register: got %d, want 413", code)
	}
	if code := post("/v1/workers", `{"name":"ok"}`); code != http.StatusCreated {
		t.Errorf("in-bound register: got %d, want 201", code)
	}

	// An oversized result must trip the bound before the lease check:
	// nothing about a huge body should be buffered or inspected.
	big := `{"lease":"l-000001","payload":"` + strings.Repeat("A", 8192) + `"}`
	if code := post("/v1/workers/w-000001/results", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized result: got %d, want 413", code)
	}
	// An in-bound but stale result still answers 409 as before.
	if code := post("/v1/workers/w-000001/results", `{"lease":"l-000001"}`); code != http.StatusConflict {
		t.Errorf("stale result: got %d, want 409", code)
	}
}

// TestRegisterBodyBoundIsOneMiB pins the production control-body
// bound: a coordinator built with zero options takes a registration
// body of exactly maxControlBytes and answers 413 to one byte more.
func TestRegisterBodyBoundIsOneMiB(t *testing.T) {
	c := NewCoordinator(Options{})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		size int
		want int
	}{
		{1 << 20, http.StatusCreated},
		{1<<20 + 1, http.StatusRequestEntityTooLarge},
	} {
		const pre, post = `{"name":"`, `"}`
		body := pre + strings.Repeat("n", tc.size-len(pre)-len(post)) + post
		resp, err := http.Post(ts.URL+"/v1/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("register body of %d bytes: got %d, want %d", tc.size, resp.StatusCode, tc.want)
		}
	}
}
