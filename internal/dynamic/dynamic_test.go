package dynamic

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

func TestMinkowskiProperties(t *testing.T) {
	// Metric axioms on random profiles: identity, symmetry, non-negativity.
	f := func(seedA, seedB [NumDynamic]int16) bool {
		var a, b Profile
		for i := range a {
			a[i] = float64(seedA[i])
			b[i] = float64(seedB[i])
		}
		dab := Minkowski(a, b, MinkowskiP)
		dba := Minkowski(b, a, MinkowskiP)
		daa := Minkowski(a, a, MinkowskiP)
		return daa == 0 && dab >= 0 && math.Abs(dab-dba) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinkowskiSpecialCases(t *testing.T) {
	var a, b Profile
	a[0], b[0] = 0, 3
	a[1], b[1] = 0, 4
	// p=2 is Euclidean: sqrt(9+16)=5.
	if d := Minkowski(a, b, 2); math.Abs(d-5) > 1e-12 {
		t.Errorf("Euclidean = %v, want 5", d)
	}
	// p=1 is Manhattan: 7.
	if d := Minkowski(a, b, 1); math.Abs(d-7) > 1e-12 {
		t.Errorf("Manhattan = %v, want 7", d)
	}
	// p=3: (27+64)^(1/3).
	want := math.Pow(91, 1.0/3)
	if d := Minkowski(a, b, 3); math.Abs(d-want) > 1e-12 {
		t.Errorf("p=3 = %v, want %v", d, want)
	}
}

func TestSimilarityAveragesOverEnvs(t *testing.T) {
	var p0, p1 Profile
	p1[5] = 10
	f := []Profile{p0, p0}
	g := []Profile{p1, p0} // raw distance 10 in env 0, 0 in env 1
	if got := SimilarityRaw(f, g); math.Abs(got-5) > 1e-12 {
		t.Errorf("SimilarityRaw = %v, want 5", got)
	}
	// The scaled form averages log-space distances the same way.
	want := math.Log1p(10) / 2
	if got := Similarity(f, g); math.Abs(got-want) > 1e-12 {
		t.Errorf("Similarity = %v, want %v", got, want)
	}
	if !math.IsInf(Similarity(nil, nil), 1) {
		t.Error("empty profile sets should be infinitely dissimilar")
	}
	// Identical profile sets are perfectly similar under both metrics.
	if Similarity(f, f) != 0 || SimilarityRaw(f, f) != 0 {
		t.Error("self-similarity should be 0")
	}
}

func TestNamesMatchTableII(t *testing.T) {
	if len(Names) != 21 {
		t.Fatalf("%d dynamic feature names, want 21", len(Names))
	}
	if Names[0] != "binary_defined_fun_call_num" || Names[20] != "syscall_num" {
		t.Error("Table II ordering broken")
	}
}

// buildFirmwareLib compiles a module and returns its disassembly.
func buildFirmwareLib(t *testing.T, mod *minic.Module) *disasm.Disassembly {
	t.Helper()
	im, err := compiler.Compile(mod, isa.XARM64, compiler.O1)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := disasm.Disassemble(im)
	if err != nil {
		t.Fatal(err)
	}
	return dis
}

func TestValidatePrunesCrashers(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("good", []string{"p", "n"},
			minic.Ret(minic.Call("checksum", minic.V("p"), minic.Call("min", minic.V("n"), minic.I(32))))),
		minic.NewFunc("crasher", []string{"p", "n"},
			minic.Ret(minic.Ld(minic.I(0), minic.I(0)))), // null deref
		minic.NewFunc("divzero", []string{"p", "n"},
			minic.Ret(minic.Div(minic.V("n"), minic.Sub(minic.V("n"), minic.V("n"))))),
	}}
	dis := buildFirmwareLib(t, mod)
	envs := []*minic.Env{
		{Args: []int64{minic.DataBase, 16, 1, 1}, Data: make([]byte, 32)},
		{Args: []int64{minic.DataBase, 8, 2, 2}, Data: []byte("abcdefgh")},
	}
	cands := dis.Funcs
	survivors, profiles, excluded := Validate(dis, cands, envs, Exec{})
	if len(survivors) != 1 {
		t.Fatalf("%d survivors, want 1 (only 'good')", len(survivors))
	}
	if dis.Funcs[survivors[0]].Name != "good" {
		t.Errorf("survivor is %s", dis.Funcs[survivors[0]].Name)
	}
	if len(profiles[survivors[0]]) != len(envs) {
		t.Errorf("survivor has %d profiles, want %d", len(profiles[survivors[0]]), len(envs))
	}
	// The pruned candidates are excluded with a reason, not dropped silently.
	if len(excluded) != 2 {
		t.Fatalf("%d exclusion reasons, want 2: %v", len(excluded), excluded)
	}
	for idx, reason := range excluded {
		if dis.Funcs[idx].Name == "good" {
			t.Error("'good' was excluded")
		}
		if reason == nil || !strings.Contains(reason.Error(), "no environment completed") {
			t.Errorf("candidate %d: uninformative exclusion reason %v", idx, reason)
		}
		if _, ok := minic.IsTrap(reason); !ok {
			t.Errorf("candidate %d: reason does not wrap the trap: %v", idx, reason)
		}
	}
}

func TestPartialProfilesSurvive(t *testing.T) {
	// A candidate that traps in one environment but completes another must
	// survive with a truncated profile for the trapping environment, and
	// must rank strictly below any fully-complete candidate.
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("solid", []string{"p", "n"},
			minic.Ret(minic.Call("checksum", minic.V("p"), minic.Call("min", minic.V("n"), minic.I(16))))),
		minic.NewFunc("flaky", []string{"p", "n"},
			minic.When(minic.Lt(minic.V("n"), minic.I(0)),
				minic.Ret(minic.Ld(minic.I(0), minic.I(0)))), // null deref on negative n
			minic.Ret(minic.Call("checksum", minic.V("p"), minic.V("n")))),
	}}
	dis := buildFirmwareLib(t, mod)
	envs := []*minic.Env{
		{Args: []int64{minic.DataBase, -1, 0, 0}, Data: []byte("abcdefgh")}, // flaky traps here
		{Args: []int64{minic.DataBase, 8, 0, 0}, Data: []byte("abcdefgh")},
	}
	survivors, profiles, excluded := Validate(dis, dis.Funcs, envs, Exec{})
	if len(survivors) != 2 || len(excluded) != 0 {
		t.Fatalf("survivors=%v excluded=%v, want both candidates surviving", survivors, excluded)
	}
	var flakyIdx, solidIdx int
	for _, i := range survivors {
		if dis.Funcs[i].Name == "flaky" {
			flakyIdx = i
		} else {
			solidIdx = i
		}
	}
	eps := profiles[flakyIdx]
	if len(eps) != 2 {
		t.Fatalf("flaky has %d env profiles, want 2", len(eps))
	}
	if eps[0].Complete() || eps[0].Trap.Kind != minic.TrapOOB {
		t.Errorf("env 0 should carry an OOB trap, got %+v", eps[0].Trap)
	}
	if !eps[1].Complete() {
		t.Errorf("env 1 should be complete, got trap %v", eps[1].Trap)
	}
	if eps[0].Vec[idxInstrs] <= 0 || eps[0].Vec[idxInstrs] >= eps[1].Vec[idxInstrs] {
		t.Errorf("truncated trace should be non-empty and shorter: %v vs %v",
			eps[0].Vec[idxInstrs], eps[1].Vec[idxInstrs])
	}
	if got := Completion(eps); got != 1 {
		t.Errorf("Completion = %d, want 1", got)
	}
	// Completion dominates similarity: solid (2/2 envs) outranks flaky (1/2)
	// even against a reference that is flaky itself.
	refEps, err := ProfileFunc(nil, dis, dis.Funcs[flakyIdx], envs[1:], Exec{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := CompleteVectors(refEps)
	if err != nil {
		t.Fatal(err)
	}
	ranked := Rank(profiles, simTo(ref))
	if ranked[0].Index != solidIdx || ranked[0].Completed != 2 {
		t.Errorf("top ranked = %+v, want fully-complete candidate %d first", ranked[0], solidIdx)
	}
	if ranked[1].Index != flakyIdx || ranked[1].Completed != 1 || ranked[1].Envs != 2 {
		t.Errorf("partial candidate ranked %+v", ranked[1])
	}
}

func TestSimilarityEnvWeighting(t *testing.T) {
	var ref0, ref1 Profile
	ref0[idxInstrs], ref1[idxInstrs] = 100, 100
	ref := []Profile{ref0, ref1}

	// One identical complete env, one trapped env that covered half the
	// reference trace: the trapped distance carries weight 0.5.
	var half Profile
	half[idxInstrs] = 50
	cand := []EnvProfile{
		{Vec: ref0},
		{Vec: half, Trap: &minic.TrapError{Kind: minic.TrapOOB}},
	}
	d1 := MinkowskiScaled(ref1, half, MinkowskiP)
	wantSim := (0 + 0.5*d1) / 1.5
	sim, completed := SimilarityEnv(ref, cand)
	if completed != 1 {
		t.Errorf("completed = %d, want 1", completed)
	}
	if math.Abs(sim-wantSim) > 1e-12 {
		t.Errorf("sim = %v, want %v", sim, wantSim)
	}
	// All environments trapped instantly: zero weight, infinite distance.
	dead := []EnvProfile{{Trap: &minic.TrapError{Kind: minic.TrapDecode}}}
	if sim, completed := SimilarityEnv(ref, dead); !math.IsInf(sim, 1) || completed != 0 {
		t.Errorf("dead candidate: sim=%v completed=%d", sim, completed)
	}
	// A step-limit trap ran at least as long as the reference: full weight.
	var over Profile
	over[idxInstrs] = 250
	long := []EnvProfile{{Vec: over, Trap: &minic.TrapError{Kind: minic.TrapStepLimit}}}
	if f := completionFrac(ref0, over); f != 1 {
		t.Errorf("over-long truncated trace frac = %v, want clamp to 1", f)
	}
	if sim, _ := SimilarityEnv(ref[:1], long); math.IsInf(sim, 1) {
		t.Error("step-limit-trapped env should still contribute signal")
	}
	if sim, completed := SimilarityEnv(nil, cand); !math.IsInf(sim, 1) || completed != 0 {
		t.Errorf("empty reference: sim=%v completed=%d", sim, completed)
	}
}

func TestCompleteVectorsRejectsTraps(t *testing.T) {
	eps := []EnvProfile{
		{},
		{Trap: &minic.TrapError{Kind: minic.TrapDivZero}},
	}
	if _, err := CompleteVectors(eps); err == nil || !strings.Contains(err.Error(), "environment 1") {
		t.Errorf("CompleteVectors error = %v, want env index + trap", err)
	}
	vs, err := CompleteVectors(eps[:1])
	if err != nil || len(vs) != 1 {
		t.Errorf("clean profiles rejected: %v", err)
	}
}

func TestRankFindsTrueMatch(t *testing.T) {
	// The same source function at a different optimization level must rank
	// closest to the reference among decoys.
	src := minic.NewFunc("target", []string{"p", "n"},
		minic.Set("s", minic.I(0)),
		minic.Loop(minic.Gt(minic.V("n"), minic.I(0)),
			minic.Set("s", minic.Add(minic.V("s"), minic.Ld(minic.V("p"), minic.V("n")))),
			minic.Set("n", minic.Sub(minic.V("n"), minic.I(1)))),
		minic.Ret(minic.V("s")))
	decoy1 := minic.NewFunc("decoy1", []string{"p", "n"},
		minic.Ret(minic.Call("checksum", minic.V("p"), minic.Call("min", minic.V("n"), minic.I(16)))))
	decoy2 := minic.NewFunc("decoy2", []string{"p", "n"},
		minic.Set("x", minic.Mul(minic.V("n"), minic.V("n"))),
		minic.Ret(minic.Xor(minic.V("x"), minic.I(255))))

	refMod := &minic.Module{Name: "ref", Funcs: []*minic.Func{src}}
	refIm, err := compiler.Compile(refMod, isa.XARM64, compiler.O0)
	if err != nil {
		t.Fatal(err)
	}
	refDis, err := disasm.Disassemble(refIm)
	if err != nil {
		t.Fatal(err)
	}
	refFn, _ := refDis.Lookup("target")

	tgtDis := buildFirmwareLib(t, &minic.Module{Name: "fw", Funcs: []*minic.Func{decoy1, src, decoy2}})

	envs := []*minic.Env{
		{Args: []int64{minic.DataBase, 24, 0, 0}, Data: []byte("abcdefghijklmnopqrstuvwxyz")},
		{Args: []int64{minic.DataBase, 8, 0, 0}, Data: []byte("12345678")},
	}
	refEps, err := ProfileFunc(nil, refDis, refFn, envs, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	refProfiles, err := CompleteVectors(refEps)
	if err != nil {
		t.Fatal(err)
	}
	survivors, profiles, _ := Validate(tgtDis, tgtDis.Funcs, envs, Exec{})
	if len(survivors) != 3 {
		t.Fatalf("%d survivors, want 3", len(survivors))
	}
	ranked := Rank(profiles, simTo(refProfiles))
	if tgtDis.Funcs[ranked[0].Index].Name != "target" {
		t.Errorf("top ranked is %s (sim %v), want target",
			tgtDis.Funcs[ranked[0].Index].Name, ranked[0].Sim)
	}
	// All candidates here complete every environment, so within the
	// completion tier distances are ascending (the paper's rule).
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Completed == ranked[i-1].Completed && ranked[i].Sim < ranked[i-1].Sim {
			t.Error("ranking not sorted ascending")
		}
		if ranked[i].Completed > ranked[i-1].Completed {
			t.Error("completion must dominate the sort")
		}
	}
}

func TestValidateParallelMatchesSequential(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 71, Name: "libpar", NumFuncs: 24, FragileFrac: 0.4})
	dis := buildFirmwareLib(t, mod)
	envs := []*minic.Env{
		{Args: []int64{minic.DataBase, 32, 5, 2}, Data: make([]byte, 64)},
		{Args: []int64{minic.DataBase, 16, -3, 9}, Data: []byte("parallel-validation-data")},
	}
	seqIdx, seqProf, seqExcl := Validate(dis, dis.Funcs, envs, Exec{})
	for _, workers := range []int{2, 4, 100} {
		parIdx, parProf, parExcl := ValidateParallel(context.Background(), dis, dis.Funcs, envs, Exec{}, workers)
		if len(parIdx) != len(seqIdx) {
			t.Fatalf("workers=%d: %d survivors vs sequential %d", workers, len(parIdx), len(seqIdx))
		}
		for i := range seqIdx {
			if parIdx[i] != seqIdx[i] {
				t.Fatalf("workers=%d: survivor order differs at %d", workers, i)
			}
			for e := range seqProf[seqIdx[i]] {
				if !sameEnvProfile(parProf[parIdx[i]][e], seqProf[seqIdx[i]][e]) {
					t.Fatalf("workers=%d: profiles differ for candidate %d", workers, seqIdx[i])
				}
			}
		}
		if len(parExcl) != len(seqExcl) {
			t.Fatalf("workers=%d: %d exclusions vs sequential %d", workers, len(parExcl), len(seqExcl))
		}
		for idx, reason := range seqExcl {
			pr, ok := parExcl[idx]
			if !ok || pr.Error() != reason.Error() {
				t.Fatalf("workers=%d: exclusion reason differs for %d: %v vs %v", workers, idx, pr, reason)
			}
		}
	}
	// Degenerate worker counts fall back to sequential.
	if idx, _, _ := ValidateParallel(context.Background(), dis, dis.Funcs, envs, Exec{}, 0); len(idx) != len(seqIdx) {
		t.Error("workers=0 should behave like Validate")
	}
	// A nil context behaves like context.Background.
	if idx, _, _ := ValidateParallel(nil, dis, dis.Funcs, envs, Exec{}, 4); len(idx) != len(seqIdx) {
		t.Error("nil context should behave like Background")
	}
}

// sameEnvProfile compares env profiles by value: identical feature vectors
// and the same trap kind (trap pointers differ across runs).
func sameEnvProfile(a, b EnvProfile) bool {
	if a.Vec != b.Vec {
		return false
	}
	if (a.Trap == nil) != (b.Trap == nil) {
		return false
	}
	return a.Trap == nil || a.Trap.Kind == b.Trap.Kind
}

func TestValidateParallelPanicRecovery(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("ok", []string{"p", "n"}, minic.Ret(minic.V("n"))),
	}}
	dis := buildFirmwareLib(t, mod)
	envs := []*minic.Env{{Args: []int64{minic.DataBase, 4, 0, 0}, Data: []byte("abcd")}}
	// A nil candidate makes the emulator panic; the pool must survive and
	// record the panic as that candidate's exclusion reason.
	cands := []*disasm.Function{dis.Funcs[0], nil}
	for _, workers := range []int{1, 4} {
		survivors, _, excluded := ValidateParallel(context.Background(), dis, cands, envs, Exec{}, workers)
		if len(survivors) != 1 || survivors[0] != 0 {
			t.Fatalf("workers=%d: survivors = %v, want [0]", workers, survivors)
		}
		reason := excluded[1]
		if reason == nil || !strings.Contains(reason.Error(), "panic") {
			t.Errorf("workers=%d: panic not recorded as exclusion: %v", workers, reason)
		}
	}
}

func TestValidateParallelCancelled(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 71, Name: "libpar", NumFuncs: 24, FragileFrac: 0.4})
	dis := buildFirmwareLib(t, mod)
	envs := []*minic.Env{
		{Args: []int64{minic.DataBase, 32, 5, 2}, Data: make([]byte, 64)},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		idx, prof, excl := ValidateParallel(ctx, dis, dis.Funcs, envs, Exec{}, workers)
		if len(idx) != 0 || len(prof) != 0 {
			t.Errorf("workers=%d: cancelled validation still profiled %d candidates", workers, len(idx))
		}
		if len(excl) != 0 {
			t.Errorf("workers=%d: cancellation recorded as exclusions: %v", workers, excl)
		}
	}
}

// simTo is Rank's distance function for tests: SimilarityEnv against ref.
func simTo(ref []Profile) func(int, []EnvProfile) float64 {
	return func(_ int, eps []EnvProfile) float64 {
		sim, _ := SimilarityEnv(ref, eps)
		return sim
	}
}
