// Package docs holds the repository's documentation gate: tests that
// keep the markdown documentation and the godoc surface in sync with
// the code. The package has no runtime code — it exists so `go test
// ./internal/docs/` can be used as a CI job that fails when an
// intra-repository markdown link points at a missing file or section,
// when an exported identifier in a documented package lacks a doc
// comment, or when the documentation names a ses.X, Query.X or
// Runner.X the code does not declare.
package docs
