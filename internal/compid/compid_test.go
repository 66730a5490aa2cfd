package compid

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/binimg"
	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/features"
	"repro/internal/isa"
	"repro/internal/minic"
)

// fingerprintImage runs the extraction pipeline the engine runs at Prepare
// time: disassemble, extract per-function features, fingerprint.
func fingerprintImage(t *testing.T, im *binimg.Image) *Fingerprint {
	t.Helper()
	dis, err := disasm.Disassemble(im)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]features.Vector, len(dis.Funcs))
	for i, fn := range dis.Funcs {
		vecs[i] = features.Extract(dis, fn)
	}
	return Extract(im, dis, vecs)
}

func compileLib(t *testing.T, mod *minic.Module, arch *isa.Arch, lvl compiler.Level) *binimg.Image {
	t.Helper()
	im, err := compiler.Compile(mod, arch, lvl)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// checkCanonical asserts the fingerprint's ordering invariants: digests,
// strings and constants strictly ascending, vectors aligned with digests.
func checkCanonical(t *testing.T, fp *Fingerprint) {
	t.Helper()
	if fp.Arch == "" {
		t.Error("fingerprint has no arch")
	}
	if len(fp.Vecs) != len(fp.Digests) {
		t.Fatalf("vectors (%d) not aligned with digests (%d)", len(fp.Vecs), len(fp.Digests))
	}
	for i := 1; i < len(fp.Digests); i++ {
		if !digestLess(fp.Digests[i-1], fp.Digests[i]) {
			t.Errorf("digests not strictly ascending at %d", i)
		}
	}
	for i := 1; i < len(fp.Strings); i++ {
		if fp.Strings[i-1] >= fp.Strings[i] {
			t.Errorf("strings not strictly ascending at %d", i)
		}
	}
	for i := 1; i < len(fp.Consts); i++ {
		if fp.Consts[i-1] >= fp.Consts[i] {
			t.Errorf("consts not strictly ascending at %d", i)
		}
	}
}

// TestExtractDeterministic pins extraction determinism on every supported
// architecture: recompiling and re-fingerprinting the same source produces
// an identical fingerprint, and stripping the image (dropping symbol names)
// changes nothing — the fingerprint depends on image contents alone.
func TestExtractDeterministic(t *testing.T) {
	for _, arch := range isa.All() {
		mod := minic.GenLibrary(minic.GenConfig{Seed: 7, Name: "libfp", NumFuncs: 12})
		fp := fingerprintImage(t, compileLib(t, mod, arch, compiler.O2))
		checkCanonical(t, fp)
		if len(fp.Digests) == 0 || len(fp.Strings) == 0 {
			t.Fatalf("%s: fixture fingerprint is vacuous: %d digests, %d strings",
				arch.Name, len(fp.Digests), len(fp.Strings))
		}

		mod2 := minic.GenLibrary(minic.GenConfig{Seed: 7, Name: "libfp", NumFuncs: 12})
		again := fingerprintImage(t, compileLib(t, mod2, arch, compiler.O2))
		if !reflect.DeepEqual(fp, again) {
			t.Errorf("%s: recompiled fingerprint differs", arch.Name)
		}

		stripped := fingerprintImage(t, compileLib(t, mod, arch, compiler.O2).Strip())
		if !reflect.DeepEqual(fp, stripped) {
			t.Errorf("%s: stripped fingerprint differs from unstripped", arch.Name)
		}
	}
}

// TestBodyDigestLinkageInvariance pins the relocation mask: a function
// compiled alone and the same function linked into a module full of other
// functions (different call-target addresses, different interned-string
// layout) must digest identically — and the mask must actually be doing
// work, i.e. for at least some corpus function the RAW instruction streams
// differ between the two linkages.
func TestBodyDigestLinkageInvariance(t *testing.T) {
	arch := isa.XARM64
	rawDiffers := false
	for _, pair := range minic.CVEs() {
		for _, lvl := range []compiler.Level{compiler.O0, compiler.O2} {
			alone := compileLib(t, &minic.Module{
				Name:  "alone",
				Funcs: []*minic.Func{minic.CloneFunc(pair.Vulnerable)},
			}, arch, lvl)
			crowd := minic.GenLibrary(minic.GenConfig{Seed: 11, Name: "libcrowd", NumFuncs: 8})
			crowd.Funcs = append(crowd.Funcs, minic.CloneFunc(pair.Vulnerable))
			linked := compileLib(t, crowd, arch, lvl)

			dAlone, err := disasm.Disassemble(alone)
			if err != nil {
				t.Fatal(err)
			}
			dLinked, err := disasm.Disassemble(linked)
			if err != nil {
				t.Fatal(err)
			}
			if len(dAlone.Funcs) != 1 {
				t.Fatalf("%s: single-function module has %d functions", pair.ID, len(dAlone.Funcs))
			}
			var inCrowd *disasm.Function
			for _, fn := range dLinked.Funcs {
				if fn.Name == pair.Vulnerable.Name {
					inCrowd = fn
				}
			}
			if inCrowd == nil {
				t.Fatalf("%s: function %s not found in linked module", pair.ID, pair.Vulnerable.Name)
			}
			if BodyDigest(arch.Name, dAlone.Funcs[0]) != BodyDigest(arch.Name, inCrowd) {
				t.Errorf("%s at %s: digest differs between linkages", pair.ID, lvl)
			}
			if !reflect.DeepEqual(dAlone.Funcs[0].Instrs, inCrowd.Instrs) {
				rawDiffers = true
			}
		}
	}
	if !rawDiffers {
		t.Error("raw instruction streams never differed between linkages; the mask is untested")
	}
}

// TestBodyDigestEditSensitivity pins the flip side of the mask: a real code
// edit — each CVE's patch, including CVE-2018-9470's single-constant
// change — must change the digest. Masking may only hide linkage, never
// edits.
func TestBodyDigestEditSensitivity(t *testing.T) {
	arch := isa.XARM64
	for _, pair := range minic.CVEs() {
		digests := make([][32]byte, 2)
		for i, fn := range []*minic.Func{pair.Vulnerable, pair.Patched} {
			im := compileLib(t, &minic.Module{
				Name:  "edit",
				Funcs: []*minic.Func{minic.CloneFunc(fn)},
			}, arch, compiler.O0)
			dis, err := disasm.Disassemble(im)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = BodyDigest(arch.Name, dis.Funcs[0])
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: vulnerable and patched bodies digest identically", pair.ID)
		}
	}
}

// TestRodataEditSensitivity pins the string channel: editing a byte inside a
// rodata string literal must change the fingerprint.
func TestRodataEditSensitivity(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 7, Name: "libfp", NumFuncs: 12})
	im := compileLib(t, mod, isa.XARM64, compiler.O2)
	fp := fingerprintImage(t, im)
	if len(fp.Strings) == 0 {
		t.Fatal("fixture image interned no distinctive strings")
	}

	edited := *im
	edited.Rodata = append([]byte(nil), im.Rodata...)
	// Flip one printable byte inside the first distinctive literal.
	idx := bytes.Index(edited.Rodata, []byte(fp.Strings[0]))
	if idx < 0 {
		t.Fatalf("string %q not found in rodata", fp.Strings[0])
	}
	if edited.Rodata[idx] == 'z' {
		edited.Rodata[idx] = 'y'
	} else {
		edited.Rodata[idx] = 'z'
	}
	got := fingerprintImage(t, &edited)
	if reflect.DeepEqual(fp.Strings, got.Strings) {
		t.Error("rodata edit left the string channel unchanged")
	}
	if reflect.DeepEqual(fp, got) {
		t.Error("rodata edit left the fingerprint unchanged")
	}
}

// TestCanberraProperties pins the distance the keep ball is measured in:
// identity, symmetry, positivity on distinct vectors, and insensitivity to
// shared zeros.
func TestCanberraProperties(t *testing.T) {
	var a, b features.Vector
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i)
	}
	if d := Canberra(a, b); d != 0 {
		t.Errorf("Canberra(x, x) = %v, want 0", d)
	}
	b[3] = 7
	if d, e := Canberra(a, b), Canberra(b, a); d != e {
		t.Errorf("asymmetric: %v vs %v", d, e)
	}
	if d := Canberra(a, b); d <= 0 {
		t.Errorf("Canberra of distinct vectors = %v, want > 0", d)
	}
	// A single changed dimension moves the average by at most 1/dims.
	if d, max := Canberra(a, b), 1.0/float64(len(a)); d > max {
		t.Errorf("single-dimension distance %v exceeds 1/dims %v", d, max)
	}
}

// TestSignatureDerivation pins the signature builder across the whole CVE
// corpus and every architecture: derivation succeeds, is deterministic, and
// yields the canonical ordering.
func TestSignatureDerivation(t *testing.T) {
	for _, arch := range isa.All() {
		for _, pair := range minic.CVEs() {
			sig, err := DeriveSignature(pair, arch)
			if err != nil {
				t.Fatalf("%s on %s: %v", pair.ID, arch.Name, err)
			}
			if sig.CVE != pair.ID || sig.Arch != arch.Name {
				t.Fatalf("%s: signature labelled %s/%s", pair.ID, sig.CVE, sig.Arch)
			}
			// Two patch states at every level, deduped digests.
			if want := 2 * len(compiler.Levels()); len(sig.Vecs) != want {
				t.Errorf("%s on %s: %d variant vectors, want %d", pair.ID, arch.Name, len(sig.Vecs), want)
			}
			if len(sig.Digests) == 0 || sig.Spread < 0 {
				t.Errorf("%s on %s: vacuous signature (%d digests, spread %v)",
					pair.ID, arch.Name, len(sig.Digests), sig.Spread)
			}
			again, err := DeriveSignature(pair, arch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sig, again) {
				t.Errorf("%s on %s: derivation is not deterministic", pair.ID, arch.Name)
			}
		}
	}
	if _, err := SignatureFor("CVE-0000-0000", isa.XARM64); err == nil {
		t.Error("SignatureFor on an unknown CVE returned no error")
	}
	sig, err := SignatureFor("CVE-2018-9412", isa.XARM64)
	if err != nil || sig.CVE != "CVE-2018-9412" {
		t.Errorf("SignatureFor(CVE-2018-9412) = %v, %v", sig, err)
	}
}

// TestSignatureSelfRecall pins the property the whole prefilter rests on: a
// signature must match the fingerprint of any image that embeds its own
// reference build — both patch states, every optimization level. The digest
// channel makes this exact, so the test admits no tolerance.
func TestSignatureSelfRecall(t *testing.T) {
	arch := isa.XARM64
	for _, pair := range minic.CVEs() {
		sig, err := DeriveSignature(pair, arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range []*minic.Func{pair.Vulnerable, pair.Patched} {
			for _, lvl := range compiler.Levels() {
				im := compileLib(t, &minic.Module{
					Name:  "host",
					Funcs: []*minic.Func{minic.CloneFunc(fn)},
				}, arch, lvl)
				if !sig.Matches(fingerprintImage(t, im.Strip())) {
					t.Errorf("%s: signature misses its own %s build of %s", pair.ID, lvl, fn.Name)
				}
			}
		}
	}
}

// TestMatchesChannels exercises each keep channel of the match rule in
// isolation on hand-built signatures and fingerprints.
func TestMatchesChannels(t *testing.T) {
	var near, far, ref features.Vector
	for i := range ref {
		ref[i] = 1
		near[i] = 1
		far[i] = 3
	}
	near[0] = 1.01 // one dimension nudged: Canberra ≈ 1e-4, inside the ball
	d := [32]byte{1}
	sig := &Signature{
		CVE:     "CVE-test",
		Arch:    "xarm64",
		Spread:  10 * DegenerateSpread,
		Digests: [][32]byte{d},
		Vecs:    []features.Vector{ref},
		Strings: []string{"libtest: magic tag"},
		Consts:  []uint64{0xdeadbeef0},
	}
	empty := func() *Fingerprint { return &Fingerprint{Arch: "xarm64", Vecs: []features.Vector{far}} }

	if sig.Matches(empty()) {
		t.Error("no shared channel, but matched")
	}
	cases := []struct {
		name string
		fp   *Fingerprint
	}{
		{"digest", func() *Fingerprint { f := empty(); f.Digests = [][32]byte{d}; return f }()},
		{"string", func() *Fingerprint { f := empty(); f.Strings = []string{"libtest: magic tag"}; return f }()},
		{"const", func() *Fingerprint { f := empty(); f.Consts = []uint64{0xdeadbeef0}; return f }()},
		{"feature ball", func() *Fingerprint { f := empty(); f.Vecs = append(f.Vecs, near); return f }()},
	}
	for _, c := range cases {
		if !sig.Matches(c.fp) {
			t.Errorf("%s channel did not match", c.name)
		}
	}

	other := empty()
	other.Arch = "x86"
	if !sig.Matches(other) {
		t.Error("cross-architecture comparison must keep the cell")
	}
	degen := *sig
	degen.Spread = DegenerateSpread / 2
	if !degen.Matches(empty()) {
		t.Error("degenerate signature must match everything")
	}
	if !degen.Degenerate() || sig.Degenerate() {
		t.Error("Degenerate() disagrees with the spread threshold")
	}
}

// TestSignatureForConcurrent pins what the scan grid relies on when its
// workers make keep decisions at once: deriving every CVE's signature on
// every architecture from 8 goroutines gives exactly the sequential
// derivations.
func TestSignatureForConcurrent(t *testing.T) {
	type job struct {
		id   string
		arch *isa.Arch
	}
	var jobs []job
	for _, arch := range isa.All() {
		for _, pair := range minic.CVEs() {
			jobs = append(jobs, job{pair.ID, arch})
		}
	}
	got := make([]*Signature, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				got[i], errs[i] = SignatureFor(jobs[i].id, jobs[i].arch)
			}
		}()
	}
	wg.Wait()
	for i, jb := range jobs {
		want, err := SignatureFor(jb.id, jb.arch)
		if err != nil || errs[i] != nil {
			t.Fatalf("%s on %s: sequential error %v, concurrent error %v", jb.id, jb.arch.Name, err, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s on %s: concurrent derivation differs from sequential", jb.id, jb.arch.Name)
		}
	}
}
