package cluster

// SetMaxIngestBodyForTest lowers the POST /events body cap so the 413
// path is reachable without a 64 MiB request. Call it before serving.
func (r *Router) SetMaxIngestBodyForTest(n int64) { r.maxIngestBody = n }
