package compiler

import (
	"testing"

	"repro/internal/disasm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minic"
)

func TestObfuscatedSemanticsPreserved(t *testing.T) {
	// Every CVE function, obfuscated, must still agree with the reference
	// interpreter — obfuscation may only change form, never behaviour.
	envs := propEnvs()
	for _, pair := range minic.CVEs()[:8] { // a representative slice keeps runtime sane
		pair := pair
		t.Run(pair.ID, func(t *testing.T) {
			t.Parallel()
			mod := &minic.Module{Name: "m", Funcs: []*minic.Func{pair.Vulnerable}}
			for _, arch := range isa.All() {
				im, err := CompileObfuscated(mod, arch, O2, DefaultObfConfig(99))
				if err != nil {
					t.Fatal(err)
				}
				dis, err := disasm.Disassemble(im)
				if err != nil {
					t.Fatal(err)
				}
				for ei, env := range envs {
					e := env.Clone()
					e.Args = e.Args[:len(pair.Vulnerable.Params)]
					want, werr := minic.Run(mod, pair.FuncName, e.Clone(), 1<<18)
					got, gerr := emu.ExecuteByName(dis, pair.FuncName, e.Clone(), 1<<22)
					if (werr == nil) != (gerr == nil) {
						wt, _ := minic.IsTrap(werr)
						gt, _ := minic.IsTrap(gerr)
						if wt != nil && gt != nil && compatibleTraps(wt.Kind, gt.Kind) {
							continue
						}
						t.Fatalf("%s env %d: interp err=%v emu err=%v", arch.Name, ei, werr, gerr)
					}
					if werr != nil {
						continue
					}
					if got.Ret != want.Ret || string(got.Mem()) != string(want.Mem) {
						t.Fatalf("%s env %d: obfuscation changed behaviour", arch.Name, ei)
					}
				}
			}
		})
	}
}

func TestObfuscationDistortsCode(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 81, Name: "libobf", NumFuncs: 6})
	clean, err := Compile(mod, isa.XARM64, O2)
	if err != nil {
		t.Fatal(err)
	}
	obf, err := CompileObfuscated(mod, isa.XARM64, O2, DefaultObfConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(obf.Text) <= len(clean.Text) {
		t.Errorf("obfuscated text (%d bytes) not larger than clean (%d)", len(obf.Text), len(clean.Text))
	}
	cd, err := disasm.Disassemble(clean)
	if err != nil {
		t.Fatal(err)
	}
	od, err := disasm.Disassemble(obf)
	if err != nil {
		t.Fatal(err)
	}
	grew := 0
	for _, cf := range cd.Funcs {
		of, ok := od.Lookup(cf.Name)
		if !ok {
			t.Fatalf("%s lost in obfuscation", cf.Name)
		}
		if len(of.Instrs) > len(cf.Instrs) {
			grew++
		}
		if len(of.Blocks) < len(cf.Blocks) {
			t.Errorf("%s: obfuscation reduced block count", cf.Name)
		}
	}
	if grew < len(cd.Funcs)/2 {
		t.Errorf("only %d/%d functions grew under obfuscation", grew, len(cd.Funcs))
	}
}

func TestObfuscatedBoundaryRecovery(t *testing.T) {
	// Stripped obfuscated images must still disassemble: the prologue is
	// kept intact by construction and all junk is decodable.
	mod := minic.GenLibrary(minic.GenConfig{Seed: 82, Name: "libobfs", NumFuncs: 10})
	for _, arch := range isa.All() {
		im, err := CompileObfuscated(mod, arch, O1, DefaultObfConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		dis, err := disasm.Disassemble(im.Strip())
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		found := make(map[uint64]bool)
		for _, f := range dis.Funcs {
			found[f.Addr] = true
		}
		for _, sym := range im.Symbols {
			if !found[sym.Addr] {
				t.Errorf("%s: boundary recovery lost %s under obfuscation", arch.Name, sym.Name)
			}
		}
	}
}

func TestObfuscationZeroDensityIsIdentity(t *testing.T) {
	mod := minic.GenLibrary(minic.GenConfig{Seed: 83, Name: "libid", NumFuncs: 4})
	clean, err := Compile(mod, isa.X86, O2)
	if err != nil {
		t.Fatal(err)
	}
	same, err := CompileObfuscated(mod, isa.X86, O2, ObfConfig{Seed: 1, Density: 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(clean.Text) != string(same.Text) {
		t.Error("density 0 should produce the clean binary")
	}
}
