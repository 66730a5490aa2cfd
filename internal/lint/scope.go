// Per-analyzer package scope. The analyzers themselves are scope-free; the
// drivers (cmd/patcheckovet and the selftest harness) consult InScope so an
// invariant is only enforced where it is load-bearing — e.g. the server may
// measure wall-clock and jitter its backoff, but the deterministic pipeline
// packages may not observe time at all.

package lint

import "strings"

// modulePath is this repository's module path; the scope tables are written
// against it so the vet driver and the in-process tests agree.
const modulePath = "repro"

// selftestPath hosts one deliberately-allowed violation per analyzer, so it
// is in every analyzer's scope: CI proves the analyzers fire AND the
// directives suppress (see selftest/selftest.go).
const selftestPath = modulePath + "/internal/lint/selftest"

// deterministicPkgs are the packages whose outputs must be byte-identical
// for any worker count, dedup setting and restart history: the scan engine
// and every stage below it, plus the obs layer whose counters are part of
// the golden contract. Wall-clock observation and global randomness are
// banned here outright; the engine's two stage-timing sites carry explicit
// allow directives (stage wall-clock is the one documented nondeterministic
// output).
var deterministicPkgs = []string{
	modulePath + "/patchecko",
	modulePath + "/internal/detector",
	modulePath + "/internal/diffengine",
	modulePath + "/internal/obs",
	modulePath + "/internal/cas",
	modulePath + "/internal/dynamic",
	modulePath + "/internal/emu",
	modulePath + "/internal/compid",
	selftestPath,
}

// errPathPkgs are the packages whose errors feed ScanError classification
// and the server's retry budget: flattening a wrapped cause with %v there
// silently turns a retryable failure into a terminal one (or vice versa).
// The CLIs are included because their errors wrap engine errors on the way
// to the operator.
var errPathPkgs = []string{
	modulePath + "/patchecko",
	modulePath + "/internal/server",
	modulePath + "/internal/cas",
	modulePath + "/internal/dynamic",
	modulePath + "/internal/emu",
	modulePath + "/internal/diffengine",
	modulePath + "/internal/detector",
	modulePath + "/internal/vulndb",
	modulePath + "/cmd/",
	selftestPath,
}

// scopes maps analyzer name to the package paths (exact, or prefixes ending
// in "/") it runs on. Analyzers without an entry run module-wide.
var scopes = map[string][]string{
	"determinism": deterministicPkgs,
	"errtaxonomy": errPathPkgs,
}

// InScope reports whether the named analyzer applies to the package path.
// Unknown packages (outside the module) are never in scope.
func InScope(analyzer, pkgPath string) bool {
	if pkgPath != modulePath && !strings.HasPrefix(pkgPath, modulePath+"/") {
		return false
	}
	pats, ok := scopes[analyzer]
	if !ok {
		return true // module-wide analyzer
	}
	for _, p := range pats {
		if pkgPath == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkgPath, p)) {
			return true
		}
	}
	return false
}
