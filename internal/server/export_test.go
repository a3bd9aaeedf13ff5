package server

// BroadcastForTest turns the routing index off: every event is
// delivered to every query, the pre-index full fan-out. The routing
// identity tests compare a normal server against one configured this
// way. Call it before the first Ingest.
func (s *Server) BroadcastForTest() {
	s.mu.Lock()
	s.broadcast = true
	s.routeDirty.Store(true)
	s.mu.Unlock()
}

// SetMaxIngestBodyForTest lowers the POST /events body cap so the 413
// path is reachable without a 64 MiB request. Call it before serving.
func (s *Server) SetMaxIngestBodyForTest(n int64) { s.maxIngestBody = n }
