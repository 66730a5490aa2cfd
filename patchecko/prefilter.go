// Component-identification prefilter: each prepared image is fingerprinted
// once (internal/compid), and each (CVE, image) task of the scan grid first
// asks whether the image's fingerprint matches the CVE's component
// signature, scanning the pair only if it does — UVSCAN's identify-
// components-first architecture applied to the (image, CVE, mode) grid.
// The answer is memoized per (CVE table, image digest), so a library that
// recurs unchanged across releases is matched once.
// The keep rule is calibrated recall-safe: a CVE's ground-truth host cells
// are never pruned, and a pruned lookalike never beats the host cell, so a
// whole-firmware Report is the same with or without pruning. Pruning is
// never silent and never leaves a row without an answer: a missing or
// degenerate signature and an armed compid.match fault keep the cell, and
// a row whose kept cells all fail or whose every cell was pruned goes to
// the reduction's rescue pass, which runs its pruned cells — each degrade
// counted and traced.

package patchecko

import (
	"crypto/sha256"

	"repro/internal/compid"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Fingerprint returns the image's component fingerprint, built once per
// prepared image from work Prepare already did (the disassembly and feature
// vectors) and shared across CVEs, scans and workers. The build is
// single-flighted under the image's mutex like the target sets.
func (p *PreparedImage) Fingerprint() *compid.Fingerprint {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fp == nil {
		p.fp = compid.Extract(p.Image, p.Dis, p.Vecs)
	}
	return p.fp
}

// signatureFor returns the component signature for (CVE, arch), derived
// once per dedup table on the analyzer's reference cache — so analyzers
// sharing a cache share it. A failed derivation memoizes nil: no signature
// means the prefilter cannot justify pruning, so callers keep those cells.
func (a *Analyzer) signatureFor(cveID, arch string) *compid.Signature {
	return a.refcache().table(cveID, arch, a.StepLimit).signature(cveID, arch)
}

// signature is signatureFor on the (CVE, arch) table itself.
func (t *dedupTable) signature(cveID, arch string) *compid.Signature {
	t.sigOnce.Do(func() {
		if ar, err := isa.ByName(arch); err == nil {
			t.sig, _ = compid.SignatureFor(cveID, ar)
		}
	})
	return t.sig
}

// PrefilterKeep reports whether the component prefilter keeps the
// (image, CVE) pair: true when the image's fingerprint matches the CVE's
// component signature, and unconditionally true on every degrade path — a
// CVE with no derivable signature, or an armed compid.match fault (keyed
// "<libname>|<cve>", counted as prefilter_degraded). The match is memoized
// per image digest on the CVE's dedup table, so an image content is matched
// once per table, however many slots, scans or daemon jobs carry it; the
// degrade paths are checked first and behave the same on a memo hit.
// ScanFirmware's grid tasks call it from the worker pool; the scan CLI uses
// it to explain per-CVE pruning. Safe for concurrent use.
func (a *Analyzer) PrefilterKeep(p *PreparedImage, cveID string) bool {
	t := a.refcache().table(cveID, p.Image.Arch, a.StepLimit)
	sig := t.signature(cveID, p.Image.Arch)
	if sig == nil {
		return true
	}
	// The fault point guards the comparison, so it fires only where a
	// comparison would run: a signature-less row counts one degrade for the
	// row, not one per cell.
	if ferr := faultinject.Fire(faultinject.CompidMatch, p.Image.LibName+"|"+cveID); ferr != nil {
		a.Obs.Add(obs.CtrPrefilterDegraded, 1)
		return true
	}
	t.mu.Lock()
	keep, ok := t.keep[p.digest]
	t.mu.Unlock()
	if ok {
		return keep
	}
	// Concurrent first decisions for one digest both match and store the
	// same answer.
	keep = sig.Matches(p.Fingerprint())
	t.mu.Lock()
	if t.keep == nil {
		t.keep = make(map[[sha256.Size]byte]bool)
	}
	t.keep[p.digest] = keep
	t.mu.Unlock()
	return keep
}
