package compiler

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/disasm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minic"
)

// compileAndRun compiles mod for (arch, level), disassembles (optionally
// after stripping, exercising boundary recovery) and executes fname via the
// emulator.
func compileAndRun(t *testing.T, mod *minic.Module, fname string, arch *isa.Arch,
	level Level, env *minic.Env, strip bool) (*emu.Result, error) {
	t.Helper()
	im, err := Compile(mod, arch, level)
	if err != nil {
		t.Fatalf("compile %s/%s: %v", arch.Name, level, err)
	}
	target := im
	if strip {
		target = im.Strip()
	}
	dis, err := disasm.Disassemble(target)
	if err != nil {
		t.Fatalf("disassemble %s/%s: %v", arch.Name, level, err)
	}
	if strip {
		// Resolve by address via the unstripped symbol table.
		sym, ok := im.Lookup(fname)
		if !ok {
			t.Fatalf("no symbol %s", fname)
		}
		fn, ok := dis.FuncAt(sym.Addr)
		if !ok {
			return nil, fmt.Errorf("boundary recovery missed function at %#x", sym.Addr)
		}
		return emu.Execute(dis, fn, env, 1<<22)
	}
	return emu.ExecuteByName(dis, fname, env, 1<<22)
}

func TestCompileTrivial(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("addmul", []string{"a", "b"},
			minic.Ret(minic.Add(minic.Mul(minic.V("a"), minic.V("b")), minic.I(7)))),
	}}
	for _, arch := range isa.All() {
		for _, lvl := range Levels() {
			res, err := compileAndRun(t, mod, "addmul", arch, lvl,
				&minic.Env{Args: []int64{6, 7}}, false)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.Name, lvl, err)
			}
			if res.Ret != 49 {
				t.Errorf("%s/%s: got %d, want 49", arch.Name, lvl, res.Ret)
			}
		}
	}
}

func TestCompileControlFlow(t *testing.T) {
	// Collatz-ish bounded iteration: a mix of loop, branch, div, mod.
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("steps", []string{"a"},
			minic.Set("n", minic.V("a")),
			minic.Set("c", minic.I(0)),
			minic.Loop(minic.Gt(minic.V("n"), minic.I(1)),
				minic.IfElse(minic.Eq(minic.Mod(minic.V("n"), minic.I(2)), minic.I(0)),
					[]minic.Stmt{minic.Set("n", minic.Div(minic.V("n"), minic.I(2)))},
					[]minic.Stmt{minic.Set("n", minic.Add(minic.Mul(minic.V("n"), minic.I(3)), minic.I(1)))}),
				minic.Set("c", minic.Add(minic.V("c"), minic.I(1))),
			),
			minic.Ret(minic.V("c")),
		),
	}}
	want, err := minic.Run(mod, "steps", &minic.Env{Args: []int64{27}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Ret != 111 {
		t.Fatalf("interpreter sanity: got %d, want 111", want.Ret)
	}
	for _, arch := range isa.All() {
		for _, lvl := range Levels() {
			res, err := compileAndRun(t, mod, "steps", arch, lvl,
				&minic.Env{Args: []int64{27}}, false)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.Name, lvl, err)
			}
			if res.Ret != want.Ret {
				t.Errorf("%s/%s: got %d, want %d", arch.Name, lvl, res.Ret, want.Ret)
			}
		}
	}
}

// propEnvs are the environments used for semantics-preservation checks.
func propEnvs() []*minic.Env {
	mk := func(args []int64, pattern func(i int) byte, n int) *minic.Env {
		data := make([]byte, n)
		for i := range data {
			data[i] = pattern(i)
		}
		return &minic.Env{Args: args, Data: data}
	}
	return []*minic.Env{
		mk([]int64{minic.DataBase, 64, 3, 2}, func(i int) byte {
			if i == 0 {
				return 4
			}
			if i < 4 {
				return 0
			}
			return 1
		}, 64),
		mk([]int64{minic.DataBase, 32, 9, 5}, func(i int) byte { return byte(i * 37) }, 256),
		mk([]int64{minic.DataBase + 16, 13, -4, 100}, func(i int) byte { return byte(255 - i) }, 128),
	}
}

// checkAgainstInterp compares the compiled+emulated behaviour of every
// function in mod against the reference interpreter under several
// environments, across every (arch, level) pair. This is the central
// correctness property of the entire toolchain.
func checkAgainstInterp(t *testing.T, mod *minic.Module, fnames []string, strip bool) {
	t.Helper()
	for _, arch := range isa.All() {
		for _, lvl := range Levels() {
			for _, fname := range fnames {
				fn := mod.Lookup(fname)
				for ei, env := range propEnvs() {
					e := env.Clone()
					e.Args = e.Args[:len(fn.Params)]
					want, werr := minic.Run(mod, fname, e.Clone(), 1<<18)
					got, gerr := compileAndRun(t, mod, fname, arch, lvl, e.Clone(), strip)
					if (werr == nil) != (gerr == nil) {
						t.Errorf("%s/%s %s env%d: interp err=%v, emu err=%v",
							arch.Name, lvl, fname, ei, werr, gerr)
						continue
					}
					if werr != nil {
						wt, _ := minic.IsTrap(werr)
						gt, ok := minic.IsTrap(gerr)
						if !ok {
							t.Errorf("%s/%s %s env%d: emu error not a trap: %v", arch.Name, lvl, fname, ei, gerr)
						} else if wt.Kind != gt.Kind && !compatibleTraps(wt.Kind, gt.Kind) {
							t.Errorf("%s/%s %s env%d: trap kinds differ: interp %v, emu %v",
								arch.Name, lvl, fname, ei, wt.Kind, gt.Kind)
						}
						continue
					}
					if got.Ret != want.Ret {
						t.Errorf("%s/%s %s env%d: ret %d, interp says %d",
							arch.Name, lvl, fname, ei, got.Ret, want.Ret)
					}
					if string(got.Mem()) != string(want.Mem) {
						t.Errorf("%s/%s %s env%d: final data region differs from interpreter",
							arch.Name, lvl, fname, ei)
					}
				}
			}
		}
	}
}

// compatibleTraps tolerates the places where the machine-level failure mode
// legitimately differs from the source-level one: source steps and machine
// instructions are different units, so when either side hits a resource
// budget (step limit, frame/stack budget) the other may have raced past it
// into the underlying fault first (e.g. the runaway loop that the
// interpreter cuts off at its step limit walks off the data region in the
// emulator). Genuine faults (OOB vs div-zero) must still match exactly.
func compatibleTraps(a, b minic.TrapKind) bool {
	limitish := func(k minic.TrapKind) bool {
		return k == minic.TrapStack || k == minic.TrapStepLimit
	}
	return limitish(a) || limitish(b)
}

func TestSemanticsPreservationCVEs(t *testing.T) {
	for _, pair := range minic.CVEs() {
		pair := pair
		t.Run(pair.ID, func(t *testing.T) {
			t.Parallel()
			vmod := &minic.Module{Name: "v", Funcs: []*minic.Func{pair.Vulnerable}}
			pmod := &minic.Module{Name: "p", Funcs: []*minic.Func{pair.Patched}}
			checkAgainstInterp(t, vmod, []string{pair.FuncName}, false)
			checkAgainstInterp(t, pmod, []string{pair.FuncName}, false)
		})
	}
}

func TestSemanticsPreservationGenerated(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 1234, Name: "libprop", NumFuncs: 12})
	names := make([]string, 0, len(mod.Funcs))
	for _, f := range mod.Funcs {
		names = append(names, f.Name)
	}
	checkAgainstInterp(t, mod, names, false)
}

func TestSemanticsPreservationStripped(t *testing.T) {
	// Boundary recovery + execution on a stripped image must agree with the
	// interpreter too.
	mod := minic.GenLibrary(minic.GenConfig{Seed: 777, Name: "libstrip", NumFuncs: 8})
	names := make([]string, 0, len(mod.Funcs))
	for _, f := range mod.Funcs {
		names = append(names, f.Name)
	}
	checkAgainstInterp(t, mod, names[:4], true)
}

func TestOptimizationLevelsProduceDifferentCode(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 9, Name: "libdiff", NumFuncs: 6})
	for _, arch := range isa.All() {
		texts := make(map[string][]Level)
		for _, lvl := range Levels() {
			im, err := Compile(mod, arch, lvl)
			if err != nil {
				t.Fatal(err)
			}
			texts[string(im.Text)] = append(texts[string(im.Text)], lvl)
		}
		if len(texts) < 4 {
			t.Errorf("%s: only %d distinct binaries across 6 levels", arch.Name, len(texts))
		}
	}
}

func TestArchsProduceDifferentCode(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 10, Name: "libarch", NumFuncs: 4})
	texts := make(map[string]string)
	for _, arch := range isa.All() {
		im, err := Compile(mod, arch, O2)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := texts[string(im.Text)]; dup {
			t.Errorf("%s and %s produced identical text", arch.Name, other)
		}
		texts[string(im.Text)] = arch.Name
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	tests := []struct {
		name string
		mod  *minic.Module
	}{
		{"too-many-params", &minic.Module{Name: "t", Funcs: []*minic.Func{
			minic.NewFunc("f", []string{"a", "b", "c", "d", "e"}, minic.Ret(minic.I(0))),
		}}},
		{"unknown-callee", &minic.Module{Name: "t", Funcs: []*minic.Func{
			minic.NewFunc("f", nil, minic.Ret(minic.Call("nosuch"))),
		}}},
		{"builtin-arity", &minic.Module{Name: "t", Funcs: []*minic.Func{
			minic.NewFunc("f", nil, minic.Ret(minic.Call("min", minic.I(1)))),
		}}},
		{"duplicate-function", &minic.Module{Name: "t", Funcs: []*minic.Func{
			minic.NewFunc("f", nil, minic.Ret(minic.I(0))),
			minic.NewFunc("f", nil, minic.Ret(minic.I(1))),
		}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Compile(tt.mod, isa.AMD64, O0); err == nil {
				t.Error("want compile error")
			}
		})
	}
}

func TestUnknownLevel(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{minic.NewFunc("f", nil, minic.Ret(minic.I(0)))}}
	if _, err := Compile(mod, isa.AMD64, Level("O9")); err == nil {
		t.Error("want error for unknown level")
	}
}

func TestDeepExpressionSpill(t *testing.T) {
	// Build an expression deep enough to exhaust every scratch file
	// (x86 has only two scratch registers), forcing Push/Pop spills.
	e := minic.Expr(minic.V("a"))
	for i := 1; i <= 12; i++ {
		e = minic.Add(minic.Mul(minic.V("a"), minic.I(int64(i))), e)
	}
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("deep", []string{"a"}, minic.Ret(e)),
	}}
	want, err := minic.Run(mod, "deep", &minic.Env{Args: []int64{3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range isa.All() {
		for _, lvl := range Levels() {
			res, err := compileAndRun(t, mod, "deep", arch, lvl, &minic.Env{Args: []int64{3}}, false)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.Name, lvl, err)
			}
			if res.Ret != want.Ret {
				t.Errorf("%s/%s: got %d, want %d", arch.Name, lvl, res.Ret, want.Ret)
			}
		}
	}
}

func TestCallsAcrossScratchPressure(t *testing.T) {
	// Nested calls inside deep expressions: exercises the caller-save
	// push/pop protocol around calls.
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("leaf", []string{"a", "b"},
			minic.Ret(minic.Sub(minic.V("a"), minic.V("b")))),
		minic.NewFunc("f", []string{"a"},
			minic.Ret(minic.Add(
				minic.Mul(minic.V("a"), minic.Call("leaf", minic.V("a"), minic.I(1))),
				minic.Call("leaf", minic.Call("leaf", minic.V("a"), minic.I(2)), minic.I(3))))),
	}}
	want, err := minic.Run(mod, "f", &minic.Env{Args: []int64{10}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range isa.All() {
		for _, lvl := range Levels() {
			res, err := compileAndRun(t, mod, "f", arch, lvl, &minic.Env{Args: []int64{10}}, false)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.Name, lvl, err)
			}
			if res.Ret != want.Ret {
				t.Errorf("%s/%s: got %d, want %d", arch.Name, lvl, res.Ret, want.Ret)
			}
		}
	}
}

func TestRecursionCompiles(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("fib", []string{"a"},
			minic.When(minic.Lt(minic.V("a"), minic.I(2)), minic.Ret(minic.V("a"))),
			minic.Ret(minic.Add(
				minic.Call("fib", minic.Sub(minic.V("a"), minic.I(1))),
				minic.Call("fib", minic.Sub(minic.V("a"), minic.I(2)))))),
	}}
	for _, arch := range isa.All() {
		res, err := compileAndRun(t, mod, "fib", arch, O2, &minic.Env{Args: []int64{15}}, false)
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		if res.Ret != 610 {
			t.Errorf("%s: fib(15) = %d, want 610", arch.Name, res.Ret)
		}
	}
}

func TestTrapsPropagate(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("boom", []string{"a"}, minic.Ret(minic.Div(minic.I(100), minic.V("a")))),
	}}
	for _, arch := range isa.All() {
		_, err := compileAndRun(t, mod, "boom", arch, O1, &minic.Env{Args: []int64{0}}, false)
		var tr *minic.TrapError
		if !errors.As(err, &tr) || tr.Kind != minic.TrapDivZero {
			t.Errorf("%s: want div-zero trap, got %v", arch.Name, err)
		}
	}
}
