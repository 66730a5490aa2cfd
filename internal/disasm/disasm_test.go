package disasm

import (
	"strings"
	"testing"

	"repro/internal/binimg"
	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/minic"
)

func compile(t *testing.T, mod *minic.Module, arch *isa.Arch, lvl compiler.Level) *binimg.Image {
	t.Helper()
	im, err := compiler.Compile(mod, arch, lvl)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func testModule() *minic.Module {
	return minic.GenLibrary(minic.GenConfig{Seed: 404, Name: "libdis", NumFuncs: 15})
}

func TestDisassembleWithSymbols(t *testing.T) {
	mod := testModule()
	for _, arch := range isa.All() {
		im := compile(t, mod, arch, compiler.O2)
		dis, err := Disassemble(im)
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		if len(dis.Funcs) != len(mod.Funcs) {
			t.Fatalf("%s: %d funcs, want %d", arch.Name, len(dis.Funcs), len(mod.Funcs))
		}
		for _, f := range dis.Funcs {
			if len(f.Instrs) == 0 || len(f.Blocks) == 0 {
				t.Errorf("%s %s: empty function", arch.Name, f.Name)
			}
		}
	}
}

func TestBoundaryRecoveryOnStrippedImages(t *testing.T) {
	mod := testModule()
	for _, arch := range isa.All() {
		for _, lvl := range compiler.Levels() {
			im := compile(t, mod, arch, lvl)
			dis, err := Disassemble(im.Strip())
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.Name, lvl, err)
			}
			// Every true function start must be recovered with the right size.
			found := make(map[uint64]uint64, len(dis.Funcs))
			for _, f := range dis.Funcs {
				found[f.Addr] = f.Size
			}
			for _, s := range im.Symbols {
				size, ok := found[s.Addr]
				if !ok {
					t.Errorf("%s/%s: missed function at %#x (%s)", arch.Name, lvl, s.Addr, s.Name)
					continue
				}
				if size != s.Size {
					t.Errorf("%s/%s %s: recovered size %d, want %d", arch.Name, lvl, s.Name, size, s.Size)
				}
			}
			// Low false-positive rate: at most one spurious boundary.
			if len(dis.Funcs) > len(im.Symbols)+1 {
				t.Errorf("%s/%s: %d recovered functions vs %d real",
					arch.Name, lvl, len(dis.Funcs), len(im.Symbols))
			}
		}
	}
}

func TestCFGInvariants(t *testing.T) {
	mod := testModule()
	for _, arch := range isa.All() {
		im := compile(t, mod, arch, compiler.O2)
		dis, err := Disassemble(im)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range dis.Funcs {
			covered := 0
			for bi := range f.Blocks {
				b := &f.Blocks[bi]
				if b.First > b.Last || b.Last >= len(f.Instrs) {
					t.Fatalf("%s: bad block range [%d,%d]", f.Name, b.First, b.Last)
				}
				covered += b.NumInstrs()
				for _, s := range b.Succs {
					if s < 0 || s >= len(f.Blocks) {
						t.Errorf("%s: successor %d out of range", f.Name, s)
					}
				}
				// Branches only terminate blocks.
				for i := b.First; i < b.Last; i++ {
					if f.Instrs[i].Op.IsBranch() || f.Instrs[i].Op == isa.Ret {
						t.Errorf("%s: control transfer mid-block at instr %d", f.Name, i)
					}
				}
				if b.Kind == BlockRet && len(b.Succs) != 0 {
					t.Errorf("%s: return block with successors", f.Name)
				}
			}
			if covered != len(f.Instrs) {
				t.Errorf("%s: blocks cover %d of %d instructions", f.Name, covered, len(f.Instrs))
			}
			// Entry block exists and at least one return block for compiled code.
			hasRet := false
			for bi := range f.Blocks {
				if f.Blocks[bi].Kind == BlockRet {
					hasRet = true
				}
			}
			if !hasRet {
				t.Errorf("%s: no return block", f.Name)
			}
		}
	}
}

func TestLocalSizeRecovered(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("f", []string{"a", "b"},
			minic.Set("x", minic.Add(minic.V("a"), minic.V("b"))),
			minic.Set("y", minic.Mul(minic.V("x"), minic.I(2))),
			minic.Ret(minic.V("y"))),
	}}
	im := compile(t, mod, isa.AMD64, compiler.O0)
	dis, err := Disassemble(im)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := dis.Lookup("f")
	if !ok {
		t.Fatal("no f")
	}
	// 4 variables (a, b, x, y) -> 32 bytes rounded to 16-byte alignment.
	if got := f.LocalSize(); got != 32 {
		t.Errorf("LocalSize = %d, want 32", got)
	}
}

func TestCalleesAndImports(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("leaf", []string{"a"}, minic.Ret(minic.V("a"))),
		minic.NewFunc("f", []string{"p"},
			minic.Set("x", minic.Call("leaf", minic.I(1))),
			minic.Set("y", minic.Call("strlen", minic.V("p"))),
			minic.Set("z", minic.Call("abs", minic.V("x"))),
			minic.Ret(minic.Add(minic.V("y"), minic.V("z")))),
	}}
	im := compile(t, mod, isa.XARM64, compiler.O0)
	dis, err := Disassemble(im)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := dis.Lookup("f")
	leaf, _ := dis.Lookup("leaf")
	callees := f.CalleeAddrs()
	if len(callees) != 1 || callees[0] != leaf.Addr {
		t.Errorf("CalleeAddrs = %#x, want [%#x]", callees, leaf.Addr)
	}
	imps := f.ImportIdxs()
	if len(imps) != 2 {
		t.Errorf("ImportIdxs = %v, want 2 entries", imps)
	}
	if len(leaf.CalleeAddrs()) != 0 || len(leaf.ImportIdxs()) != 0 {
		t.Error("leaf should have no callees or imports")
	}
}

func TestDisassembleUnknownArch(t *testing.T) {
	if _, err := Disassemble(&binimg.Image{Arch: "mips"}); err == nil {
		t.Error("want error for unknown arch")
	}
}

func TestDumpListing(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("leaf", []string{"a"}, minic.Ret(minic.V("a"))),
		minic.NewFunc("f", []string{"p", "n"},
			minic.Loop(minic.Gt(minic.V("n"), minic.I(0)),
				minic.Set("s", minic.Add(minic.V("s"), minic.Call("leaf", minic.V("n")))),
				minic.Set("n", minic.Sub(minic.V("n"), minic.I(1)))),
			minic.Do(minic.Call("write_log", minic.V("s"))),
			minic.Ret(minic.V("s"))),
	}}
	im := compile(t, mod, isa.AMD64, compiler.O1)
	dis, err := Disassemble(im)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	dis.DumpAll(&buf)
	out := buf.String()
	for _, want := range []string{
		"<f>", "<leaf>", // symbol headers
		"call <leaf>",           // resolved local call
		"calli <write_log@plt>", // resolved import
		"bb0:",                  // block markers
		"-> bb",                 // branch annotations or successor lists
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
	// A stripped image dumps with synthetic names.
	sdis, err := Disassemble(im.Strip())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	sdis.DumpAll(&buf)
	if !strings.Contains(buf.String(), "sub_") {
		t.Error("stripped listing lacks synthetic sub_ names")
	}
}

// TestLinksResolveLikeTheMaps checks the predecoded links against the
// offset and address maps they stand in for: every branch resolves as
// IndexAtOffset does and every Call as FuncAt does; a function built by
// hand, with neither map, resolves nothing; the table is built once per
// function; and a second disassembly executing the same function resolves
// calls into its own functions, not the first one's.
func TestLinksResolveLikeTheMaps(t *testing.T) {
	mod := testModule()
	for _, arch := range isa.All() {
		im := compile(t, mod, arch, compiler.O2)
		dis, err := Disassemble(im)
		if err != nil {
			t.Fatal(err)
		}
		var caller *Function
		for _, f := range dis.Funcs {
			l := dis.Links(f)
			if dis.Links(f) != l {
				t.Fatalf("%s %s: links rebuilt on second use", arch.Name, f.Name)
			}
			for i, in := range f.Instrs {
				switch {
				case in.Op.IsBranch():
					want, wantOK := f.IndexAtOffset(int(in.Imm))
					if got, ok := l.BranchTarget(i); ok != wantOK || got != want && ok {
						t.Errorf("%s %s: branch %d -> %d,%v, want %d,%v", arch.Name, f.Name, i, got, ok, want, wantOK)
					}
				case in.Op == isa.Call:
					caller = f
					want, wantOK := dis.FuncAt(uint64(in.Imm))
					if got, ok := l.Callee(i); ok != wantOK || got != want {
						t.Errorf("%s %s: call %d -> %v,%v, want %v,%v", arch.Name, f.Name, i, got, ok, want, wantOK)
					}
				}
			}
		}
		if caller == nil {
			t.Fatalf("%s: test module makes no calls", arch.Name)
		}
		again, err := Disassemble(im)
		if err != nil {
			t.Fatal(err)
		}
		l := again.Links(caller)
		for i, in := range caller.Instrs {
			if in.Op != isa.Call {
				continue
			}
			want, _ := again.FuncAt(uint64(in.Imm))
			if got, _ := l.Callee(i); got != want {
				t.Errorf("%s: second disassembly's call %d resolved to %p, want its own %p", arch.Name, i, got, want)
			}
		}
	}

	f := &Function{Instrs: []DInstr{
		{Instr: isa.Instr{Op: isa.Jmp, Imm: 0}},
		{Instr: isa.Instr{Op: isa.Call, Imm: int64(binimg.TextBase)}},
	}}
	bare := &Disassembly{Funcs: []*Function{f}}
	l := bare.Links(f)
	if _, ok := l.BranchTarget(0); ok {
		t.Error("branch resolved without an offset map")
	}
	if _, ok := l.Callee(1); ok {
		t.Error("call resolved without an address map")
	}
}
