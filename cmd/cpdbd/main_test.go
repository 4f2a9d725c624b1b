package main

import (
	"net/http"
	"testing"
)

// TestServerTimeouts checks that the daemon's HTTP server bounds how long a
// client may take to send its headers and how long an idle connection
// stays open.
func TestServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
}
