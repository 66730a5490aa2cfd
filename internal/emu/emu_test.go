package emu

import (
	"errors"
	"testing"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

func disassembled(t *testing.T, mod *minic.Module, arch *isa.Arch, lvl compiler.Level) *disasm.Disassembly {
	t.Helper()
	im, err := compiler.Compile(mod, arch, lvl)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := disasm.Disassemble(im)
	if err != nil {
		t.Fatal(err)
	}
	return dis
}

func TestTraceInstructionMix(t *testing.T) {
	// A function with a known mix: a loop with loads, stores, arithmetic,
	// one library call and one syscall.
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("f", []string{"p", "n"},
			minic.Set("s", minic.I(0)),
			minic.Loop(minic.Gt(minic.V("n"), minic.I(0)),
				minic.Set("s", minic.Add(minic.V("s"), minic.Ld(minic.V("p"), minic.V("n")))),
				minic.St(minic.V("p"), minic.V("n"), minic.V("s")),
				minic.Set("n", minic.Sub(minic.V("n"), minic.I(1))),
			),
			minic.Set("x", minic.Call("abs", minic.V("s"))),
			minic.Do(minic.Call("write_log", minic.V("x"))),
			minic.Ret(minic.V("x"))),
	}}
	for _, arch := range isa.All() {
		dis := disassembled(t, mod, arch, compiler.O1)
		env := &minic.Env{Args: []int64{minic.DataBase, 10}, Data: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
		res, err := ExecuteByName(dis, "f", env, 0)
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		tr := res.Trace
		if tr.Instrs == 0 || tr.ArithInstrs == 0 || tr.BranchInstrs == 0 {
			t.Errorf("%s: zero counts in %+v", arch.Name, tr.Vector())
		}
		if tr.LoadInstrs == 0 || tr.StoreInstrs == 0 {
			t.Errorf("%s: loads/stores not traced", arch.Name)
		}
		if tr.LibCalls != 1 {
			t.Errorf("%s: LibCalls = %d, want 1", arch.Name, tr.LibCalls)
		}
		if tr.Syscalls != 1 {
			t.Errorf("%s: Syscalls = %d, want 1", arch.Name, tr.Syscalls)
		}
		if tr.AnonAccess == 0 {
			t.Errorf("%s: data-region accesses not counted", arch.Name)
		}
		if tr.UniqueInstrs() == 0 || tr.UniqueInstrs() > tr.Instrs {
			t.Errorf("%s: unique instrs %d vs total %d", arch.Name, tr.UniqueInstrs(), tr.Instrs)
		}
		if tr.MaxBranchFreq() < 10 {
			t.Errorf("%s: loop branch executed %d times, want >= 10", arch.Name, tr.MaxBranchFreq())
		}
	}
}

func TestStackDepthTracking(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("depth3", []string{"a"},
			minic.When(minic.Le(minic.V("a"), minic.I(0)), minic.Ret(minic.I(0))),
			minic.Ret(minic.Add(minic.I(1), minic.Call("depth3", minic.Sub(minic.V("a"), minic.I(1)))))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O1)
	res, err := ExecuteByName(dis, "depth3", &minic.Env{Args: []int64{5}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	minD, maxD, mean, std := res.Trace.StackDepthStats()
	if minD != 1 || maxD != 6 {
		t.Errorf("stack depth range [%d,%d], want [1,6]", minD, maxD)
	}
	if mean <= 1 || mean >= 6 || std <= 0 {
		t.Errorf("stack depth mean=%f std=%f implausible", mean, std)
	}
	if res.Trace.BinaryFunCalls != 5 {
		t.Errorf("BinaryFunCalls = %d, want 5", res.Trace.BinaryFunCalls)
	}
	if res.Ret != 5 {
		t.Errorf("ret = %d, want 5", res.Ret)
	}
}

func TestMemoryRegionTagging(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("regions", []string{"p"},
			// Heap access via malloc, rodata via strlen of a literal,
			// data via p, stack implicitly via frame slots.
			minic.Set("h", minic.Call("malloc", minic.I(64))),
			minic.St(minic.V("h"), minic.I(0), minic.I(42)),
			minic.Set("r", minic.Call("strlen", minic.S("const-tag"))),
			minic.Set("d", minic.Ld(minic.V("p"), minic.I(0))),
			minic.Ret(minic.Add(minic.V("r"), minic.Add(minic.V("d"), minic.Ld(minic.V("h"), minic.I(0)))))),
	}}
	dis := disassembled(t, mod, isa.X86, compiler.O0) // O0: frame slots -> stack accesses
	res, err := ExecuteByName(dis, "regions", &minic.Env{Args: []int64{minic.DataBase}, Data: []byte{7}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.HeapAccess == 0 {
		t.Error("heap accesses not tagged")
	}
	if tr.LibAccess == 0 {
		t.Error("rodata (lib) accesses not tagged")
	}
	if tr.AnonAccess == 0 {
		t.Error("data (anon) accesses not tagged")
	}
	if tr.StackAccess == 0 {
		t.Error("stack accesses not tagged")
	}
	if res.Ret != 9+7+42 {
		t.Errorf("ret = %d, want 58", res.Ret)
	}
}

func TestTrapOnWildAccess(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("wild", []string{"a"}, minic.Ret(minic.Ld(minic.V("a"), minic.I(0)))),
	}}
	dis := disassembled(t, mod, isa.XARM32, compiler.O2)
	_, err := ExecuteByName(dis, "wild", &minic.Env{Args: []int64{0x50}}, 0)
	var tr *minic.TrapError
	if !errors.As(err, &tr) || tr.Kind != minic.TrapOOB {
		t.Fatalf("want OOB trap, got %v", err)
	}
}

func TestStepLimitTrap(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("spin", nil, minic.Loop(minic.I(1), minic.Set("x", minic.Add(minic.V("x"), minic.I(1)))), minic.Ret(minic.V("x"))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O1)
	_, err := ExecuteByName(dis, "spin", &minic.Env{}, 500)
	var tr *minic.TrapError
	if !errors.As(err, &tr) || tr.Kind != minic.TrapStepLimit {
		t.Fatalf("want step-limit trap, got %v", err)
	}
}

func TestRodataNotWritable(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("scribble", nil,
			minic.St(minic.S("readonly"), minic.I(0), minic.I(1)),
			minic.Ret(minic.I(0))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O0)
	_, err := ExecuteByName(dis, "scribble", &minic.Env{}, 0)
	var tr *minic.TrapError
	if !errors.As(err, &tr) || tr.Kind != minic.TrapOOB {
		t.Fatalf("want OOB trap on rodata write, got %v", err)
	}
}

func TestDeterministicTraces(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 55, Name: "libdet", NumFuncs: 6, FragileFrac: 0.0001})
	dis := disassembled(t, mod, isa.XARM64, compiler.O2)
	env := &minic.Env{Args: []int64{minic.DataBase, 40, 3, 9}, Data: []byte("deterministic data bytes for tracing ok")}
	for _, f := range dis.Funcs {
		r1, err1 := Execute(dis, f, env.Clone(), 0)
		r2, err2 := Execute(dis, f, env.Clone(), 0)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: nondeterministic trap", f.Name)
		}
		if err1 != nil {
			continue
		}
		if r1.Ret != r2.Ret || r1.Trace.Vector() != r2.Trace.Vector() {
			t.Errorf("%s: nondeterministic trace", f.Name)
		}
	}
}

func TestExecuteByNameUnknown(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{minic.NewFunc("f", nil, minic.Ret(minic.I(0)))}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O0)
	if _, err := ExecuteByName(dis, "missing", &minic.Env{}, 0); err == nil {
		t.Error("want error for unknown function")
	}
}

func TestTraceVectorOrder(t *testing.T) {
	// The vector must follow Table II ordering: spot-check a few slots.
	tr := newTrace()
	tr.BinaryFunCalls = 3
	tr.Instrs = 100
	tr.Syscalls = 7
	v := tr.Vector()
	if v[0] != 3 || v[5] != 100 || v[20] != 7 {
		t.Errorf("vector ordering wrong: %v", v)
	}
}

// TestKitchenSinkOpCoverage executes a function exercising every source
// operator (all binary ops including float, all unary ops, both branch
// polarities, word memory ops, break/continue, recursion, every builtin)
// on every architecture at two optimization levels, comparing the emulator
// against the reference interpreter.
func TestKitchenSinkOpCoverage(t *testing.T) {
	mk := minic.NewFunc
	var body []minic.Stmt
	acc := func(e minic.Expr) {
		body = append(body, minic.Set("acc", minic.Xor(minic.V("acc"), e)))
	}
	body = append(body, minic.Set("acc", minic.I(0)))
	// Every binary operator, with operands that avoid traps.
	ops := []minic.BinOp{
		minic.OpAdd, minic.OpSub, minic.OpMul, minic.OpAnd, minic.OpOr,
		minic.OpXor, minic.OpShl, minic.OpShr,
		minic.OpEq, minic.OpNe, minic.OpLt, minic.OpLe, minic.OpGt, minic.OpGe,
		minic.OpFAdd, minic.OpFSub, minic.OpFMul, minic.OpFDiv,
	}
	for i, op := range ops {
		acc(minic.B(op, minic.Add(minic.V("a"), minic.I(int64(i))), minic.V("b")))
	}
	acc(minic.Div(minic.V("a"), minic.Add(minic.V("b"), minic.I(1))))
	acc(minic.Mod(minic.V("a"), minic.Add(minic.V("b"), minic.I(3))))
	// Unary operators.
	acc(minic.Neg(minic.V("a")))
	acc(minic.Not(minic.V("a")))
	acc(&minic.Un{Op: minic.OpInv, X: minic.V("b")})
	// Both polarities of every comparison in branch position.
	for _, op := range []minic.BinOp{minic.OpEq, minic.OpNe, minic.OpLt, minic.OpLe, minic.OpGt, minic.OpGe} {
		body = append(body,
			minic.IfElse(minic.B(op, minic.V("a"), minic.V("b")),
				[]minic.Stmt{minic.Set("acc", minic.Add(minic.V("acc"), minic.I(3)))},
				[]minic.Stmt{minic.Set("acc", minic.Sub(minic.V("acc"), minic.I(5)))}),
			minic.IfElse(minic.B(op, minic.V("b"), minic.V("a")),
				[]minic.Stmt{minic.Set("acc", minic.Add(minic.V("acc"), minic.I(7)))},
				[]minic.Stmt{minic.Set("acc", minic.Sub(minic.V("acc"), minic.I(11)))}),
		)
	}
	// Word + byte memory, string literals, break/continue.
	body = append(body,
		minic.StW(minic.V("p"), minic.I(1), minic.V("acc")),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.LdW(minic.V("p"), minic.I(1)))),
		minic.St(minic.V("p"), minic.I(3), minic.V("acc")),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Ld(minic.V("p"), minic.I(3)))),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("strlen", minic.S("kitchen-sink")))),
	)
	// Increment-first loop so Continue cannot skip the induction update.
	body = append(body,
		minic.Set("i", minic.I(-1)),
		minic.Loop(minic.Lt(minic.V("i"), minic.I(20)),
			minic.Set("i", minic.Add(minic.V("i"), minic.I(1))),
			minic.When(minic.Eq(minic.Mod(minic.V("i"), minic.I(4)), minic.I(0)), &minic.Continue{}),
			minic.When(minic.Gt(minic.V("i"), minic.I(15)), &minic.Break{}),
			minic.Set("acc", minic.Add(minic.V("acc"), minic.V("i")))))
	// Every builtin.
	body = append(body,
		minic.Set("h", minic.Call("malloc", minic.I(32))),
		minic.Do(minic.Call("memset", minic.V("h"), minic.I(7), minic.I(16))),
		minic.Do(minic.Call("memmove", minic.Add(minic.V("h"), minic.I(8)), minic.V("h"), minic.I(8))),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("memcmp", minic.V("h"), minic.Add(minic.V("h"), minic.I(8)), minic.I(8)))),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("checksum", minic.V("h"), minic.I(16)))),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("abs", minic.Neg(minic.V("a"))))),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("min", minic.V("a"), minic.V("b")))),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("max", minic.V("a"), minic.V("b")))),
		minic.Do(minic.Call("free", minic.V("h"))),
		minic.Do(minic.Call("write_log", minic.V("acc"))),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("read_time"))),
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("sys_rand", minic.V("acc")))),
		// Recursive helper call.
		minic.Set("acc", minic.Add(minic.V("acc"), minic.Call("fib", minic.I(7)))),
		minic.Ret(minic.V("acc")),
	)
	mod := &minic.Module{Name: "sink", Funcs: []*minic.Func{
		mk("fib", []string{"a"},
			minic.When(minic.Lt(minic.V("a"), minic.I(2)), minic.Ret(minic.V("a"))),
			minic.Ret(minic.Add(
				minic.Call("fib", minic.Sub(minic.V("a"), minic.I(1))),
				minic.Call("fib", minic.Sub(minic.V("a"), minic.I(2)))))),
		mk("sink", []string{"p", "a", "b"}, body...),
	}}
	envs := []*minic.Env{
		{Args: []int64{minic.DataBase, 13, 5}, Data: []byte("abcdefgh")},
		{Args: []int64{minic.DataBase, -9, 13}, Data: make([]byte, 64)},
		{Args: []int64{minic.DataBase, 5, 5}, Data: []byte{255, 0, 255, 0}},
	}
	for _, env := range envs {
		want, err := minic.Run(mod, "sink", env.Clone(), 1<<18)
		if err != nil {
			t.Fatalf("interp: %v", err)
		}
		for _, arch := range isa.All() {
			for _, lvl := range []compiler.Level{compiler.O0, compiler.O2} {
				dis := disassembled(t, mod, arch, lvl)
				got, err := ExecuteByName(dis, "sink", env.Clone(), 1<<20)
				if err != nil {
					t.Fatalf("%s/%s: %v", arch.Name, lvl, err)
				}
				if got.Ret != want.Ret {
					t.Errorf("%s/%s: ret %d, interp says %d", arch.Name, lvl, got.Ret, want.Ret)
				}
				if string(got.Mem()) != string(want.Mem) {
					t.Errorf("%s/%s: memory state diverges", arch.Name, lvl)
				}
			}
		}
	}
}
