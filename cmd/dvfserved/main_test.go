package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestDefaultTimeouts: every timeout is set, and the write timeout
// outlasts the drain handler's own limit.
func TestDefaultTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler(), defaultTimeouts)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unset timeout: header %v, read %v, write %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout <= serve.DrainTimeout {
		t.Fatalf("write timeout %v does not outlast the drain timeout %v", srv.WriteTimeout, serve.DrainTimeout)
	}
}

// startServer serves h through newHTTPServer with the given timeouts.
func startServer(t *testing.T, h http.Handler, to httpTimeouts) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ts.Config = newHTTPServer("", h, to)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// TestSlowClientsAreCutOff drives the server with short timeouts: a
// client that never finishes its header, one that stalls in its body,
// and one idling on a keep-alive connection each get their connection
// closed, while a prompt request is served.
func TestSlowClientsAreCutOff(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return
		}
		io.WriteString(w, "ok")
	})
	to := httpTimeouts{readHeader: 100 * time.Millisecond, read: 200 * time.Millisecond,
		write: time.Second, idle: 200 * time.Millisecond}
	ts := startServer(t, h, to)

	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("prompt request got %q", body)
	}

	// closedWithin sends partial, then waits for the server to close
	// the connection (EOF or reset) before limit.
	closedWithin := func(name, partial string, limit time.Duration) {
		t.Helper()
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, partial); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		conn.SetReadDeadline(start.Add(limit))
		br := bufio.NewReader(conn)
		for {
			if _, err := br.ReadString('\n'); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("%s: connection still open after %v", name, limit)
				}
				return
			}
		}
	}
	closedWithin("slow header", "GET / HTTP/1.1\r\nHost: x\r\n", 2*time.Second)
	closedWithin("slow body", "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nab", 2*time.Second)
	closedWithin("idle keep-alive", "GET / HTTP/1.1\r\nHost: x\r\n\r\n", 2*time.Second)
}
