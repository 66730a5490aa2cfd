// Component-identification prefilter: before the scan grid is scheduled,
// each prepared image is fingerprinted once (internal/compid) and each CVE
// row keeps only the images whose fingerprints match the CVE's component
// signature — UVSCAN's identify-components-first architecture applied to
// the (image, CVE, mode) grid. The keep rule is calibrated recall-safe: a
// CVE's ground-truth host cells are never pruned, and a pruned lookalike
// never beats the host cell, so a whole-firmware Report is the same with
// or without pruning. Every escape path degrades to the FULL grid, never to silent pruning:
// missing signatures, degenerate signatures, armed compid.match faults and
// rows the filter would empty all keep their cells, with the degrade
// counted and traced.

package patchecko

import (
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
	t := a.refcache().table(cveID, arch, a.StepLimit)
	t.sigOnce.Do(func() {
		if ar, err := isa.ByName(arch); err == nil {
			t.sig, _ = compid.SignatureFor(cveID, ar)
		}
	})
	return t.sig
}

// PrefilterKeep reports whether the component prefilter keeps the
// (image, CVE) pair: true when the image's fingerprint matches the CVE's
// component signature, and unconditionally true on every degrade path — an
// armed compid.match fault (keyed "<libname>|<cve>") or a CVE with no
// derivable signature. The scan CLI uses it to explain per-CVE pruning;
// ScanFirmware folds it into the grid keep matrix.
func (a *Analyzer) PrefilterKeep(p *PreparedImage, cveID string) bool {
	if ferr := faultinject.Fire(faultinject.CompidMatch, p.Image.LibName+"|"+cveID); ferr != nil {
		a.Obs.Add(obs.CtrPrefilterDegraded, 1)
		return true
	}
	sig := a.signatureFor(cveID, p.Image.Arch)
	if sig == nil {
		return true
	}
	return sig.Matches(p.Fingerprint())
}

// prefilterGrid computes the scan grid's keep matrix, indexed [CVE][image],
// plus the number of (image, CVE, mode) cells pruned. It returns a nil
// matrix when the prefilter is off (schedule everything). Runs sequentially
// before the grid, so its counters and trace events are deterministic for
// any worker count.
func (a *Analyzer) prefilterGrid(prepared []*PreparedImage, ids []string, nModes int) ([][]bool, int) {
	if !a.Prefilter {
		return nil, 0
	}
	keep := make([][]bool, len(ids))
	pruned := 0
	for ci, id := range ids {
		row := make([]bool, len(prepared))
		keep[ci] = row
		healthy := 0
		var sig *compid.Signature
		for _, p := range prepared {
			if p != nil {
				healthy++
				if sig == nil {
					sig = a.signatureFor(id, p.Image.Arch)
				}
			}
		}
		if healthy == 0 {
			continue
		}
		if sig == nil {
			// No signature to prune against: the whole row runs.
			for pi, p := range prepared {
				row[pi] = p != nil
			}
			a.Obs.Add(obs.CtrPrefilterDegraded, 1)
			a.Obs.Emit(obs.Event{
				Kind:   obs.EvPrefilter,
				CVE:    id,
				Images: healthy,
				Reason: "no signature; kept full row",
			})
			continue
		}
		kept := 0
		for pi, p := range prepared {
			if p == nil {
				continue
			}
			if a.PrefilterKeep(p, id) {
				row[pi] = true
				kept++
			}
		}
		reason := ""
		if kept == 0 {
			// A row the filter would empty is a filter failure, not a
			// finding: keep every cell so the full grid decides.
			for pi, p := range prepared {
				row[pi] = p != nil
			}
			kept = healthy
			reason = "all cells pruned; kept full row"
			a.Obs.Add(obs.CtrPrefilterDegraded, 1)
		}
		pruned += (healthy - kept) * nModes
		a.Obs.Emit(obs.Event{
			Kind:   obs.EvPrefilter,
			CVE:    id,
			Images: healthy,
			Pruned: healthy - kept,
			Reason: reason,
		})
	}
	return keep, pruned
}
