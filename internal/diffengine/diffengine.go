// Package diffengine implements PATCHECKO's third stage: deciding whether a
// matched target function is the vulnerable or the patched version of a CVE
// function (§III-D).
//
// Given the vulnerable reference fv, the patched reference fp and the
// target ft, the engine combines three evidence sources, exactly as the
// paper describes:
//
//   - the static feature vectors of fv, fp and ft (Table I);
//   - the dynamic semantic similarity scores sim(fv,ft) vs sim(fp,ft)
//     (Minkowski p=3 over the shared execution environments);
//   - differential signatures comparing CFG topology and semantic
//     information — local-variable footprint and the set of library
//     functions called (the paper's case study hinges on the patched
//     removeUnsynchronization dropping its j___aeabi_memmove import).
//
// The engine inherits the paper's documented limitation: when the patch is
// a single constant (CVE-2018-9470) none of these features move, the
// evidence is a dead tie, and the verdict falls back to "patched" — the one
// misclassification in Table VIII.
package diffengine

import (
	"math"
	"sort"

	"repro/internal/disasm"
	"repro/internal/dynamic"
	"repro/internal/features"
	"repro/internal/isa"
)

// Signature is the differential signature of one function: CFG topology
// plus semantic information.
type Signature struct {
	NumBlocks int
	NumEdges  int
	// DegreeSeq is the sorted out-degree sequence of the CFG — a cheap
	// topology fingerprint.
	DegreeSeq []int
	// Imports is the sorted set of import-table slots the function calls
	// (library-function identity, e.g. memmove).
	Imports []int
	// LocalSize is the frame footprint in bytes.
	LocalSize int64
	// NumCalls is the number of call sites (intra + import).
	NumCalls int
}

// SigOf computes the differential signature of a disassembled function.
func SigOf(fn *disasm.Function) Signature {
	sig := Signature{
		NumBlocks: len(fn.Blocks),
		NumEdges:  fn.NumEdges(),
		LocalSize: fn.LocalSize(),
		Imports:   fn.ImportIdxs(),
	}
	sort.Ints(sig.Imports)
	for i := range fn.Blocks {
		sig.DegreeSeq = append(sig.DegreeSeq, len(fn.Blocks[i].Succs))
	}
	sort.Ints(sig.DegreeSeq)
	for _, in := range fn.Instrs {
		if in.Op == isa.Call || in.Op == isa.CallI {
			sig.NumCalls++
		}
	}
	return sig
}

// Distance quantifies how different two signatures are; 0 means identical.
func Distance(a, b Signature) float64 {
	d := math.Abs(float64(a.NumBlocks-b.NumBlocks)) +
		math.Abs(float64(a.NumEdges-b.NumEdges)) +
		math.Abs(float64(a.NumCalls-b.NumCalls)) +
		math.Abs(float64(a.LocalSize-b.LocalSize))/8
	d += float64(setDiff(a.Imports, b.Imports)) * 4 // library-call identity is strong evidence
	d += seqDiff(a.DegreeSeq, b.DegreeSeq)
	return d
}

// setDiff counts elements in the symmetric difference of two sorted sets.
func setDiff(a, b []int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			i++
			n++
		default:
			j++
			n++
		}
	}
	return n + (len(a) - i) + (len(b) - j)
}

// seqDiff compares two sorted integer sequences element-wise.
func seqDiff(a, b []int) float64 {
	var d float64
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		av, bv := 0, 0
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d += math.Abs(float64(av - bv))
	}
	return d
}

// Evidence reports the per-source measurements behind a verdict, for
// transparency in reports and tests.
type Evidence struct {
	// Dynamic similarity distances (smaller = closer).
	SimVuln, SimPatched float64
	// Static feature L1 distances.
	StaticVuln, StaticPatched float64
	// Differential signature distances.
	SigVuln, SigPatched float64
}

// Verdict is the engine's decision.
type Verdict struct {
	// Patched reports the engine's conclusion.
	Patched bool
	// Confidence in [0,1]; 0.5 means a dead tie (resolved toward Patched,
	// the engine's fallback, reproducing the paper's CVE-2018-9470 miss).
	Confidence float64
	Evidence   Evidence
}

// Inputs carries everything the engine needs for one decision.
type Inputs struct {
	VulnStatic    features.Vector
	PatchedStatic features.Vector
	TargetStatic  features.Vector

	VulnProfiles    []dynamic.Profile
	PatchedProfiles []dynamic.Profile
	TargetProfiles  []dynamic.Profile

	VulnSig    Signature
	PatchedSig Signature
	TargetSig  Signature
}

// Weights of the three evidence sources; signatures dominate because
// library-call and CFG identity are the most reliable patch indicators.
const (
	wSig    = 0.5
	wDyn    = 0.3
	wStatic = 0.2
)

// Decide runs the differential analysis.
func Decide(in Inputs) Verdict {
	ev := Evidence{
		SimVuln:       dynamic.Similarity(in.VulnProfiles, in.TargetProfiles),
		SimPatched:    dynamic.Similarity(in.PatchedProfiles, in.TargetProfiles),
		StaticVuln:    l1(in.VulnStatic, in.TargetStatic),
		StaticPatched: l1(in.PatchedStatic, in.TargetStatic),
		SigVuln:       Distance(in.VulnSig, in.TargetSig),
		SigPatched:    Distance(in.PatchedSig, in.TargetSig),
	}
	// Each source votes in [-1, 1]: positive = looks patched.
	score := wSig*vote(ev.SigVuln, ev.SigPatched) +
		wDyn*vote(ev.SimVuln, ev.SimPatched) +
		wStatic*vote(ev.StaticVuln, ev.StaticPatched)
	v := Verdict{Evidence: ev}
	// A dead tie (all evidence identical) falls back to "patched": with no
	// differential signal the engine cannot distinguish the versions, and
	// this default is what produces the paper's single Table VIII error on
	// the one-integer patch.
	v.Patched = score >= 0
	v.Confidence = 0.5 + math.Min(math.Abs(score), 1)/2
	if score == 0 {
		v.Confidence = 0.5
	}
	return v
}

// vote maps (distance-to-vuln, distance-to-patched) to [-1, 1]; positive
// means closer to the patched reference.
func vote(dv, dp float64) float64 {
	if dv == dp {
		return 0
	}
	return (dv - dp) / (math.Abs(dv) + math.Abs(dp) + 1e-12)
}

func l1(a, b features.Vector) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}
