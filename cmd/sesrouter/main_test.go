package main

import "testing"

// TestHTTPServerTimeouts: slow-header and idle connections are bounded;
// responses are not, because ?follow=1 merged streams are long-lived.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(nil)
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Errorf("timeouts: read-header %s, idle %s, write %s; want the first two positive and no write timeout",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
}
