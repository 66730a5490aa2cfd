package emu

import (
	"context"

	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

// Hooks for the tests of package emu_test, which load their corpus through
// packages that import emu.

// Outcome is everything one execution shows its caller: the return
// register, the error, the Table II vector and the final data region.
type Outcome struct {
	Ret int64
	Err error
	Vec [21]float64
	Mem []byte
}

// RunOn executes fn under env on m the way the pooled entries run every
// execution, then releases m. A new(Machine) gives a never-pooled
// execution; one machine passed again and again gives a reused one.
func RunOn(ctx context.Context, m *Machine, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) Outcome {
	ret, err := m.exec(ctx, dis, fn, env, limit)
	out := Outcome{Ret: ret, Err: err, Vec: m.trace.Vector(), Mem: (&Result{data: m.mem.data}).Mem()}
	m.release()
	return out
}

// FlagProbe returns a hand-built function that returns whether the compare
// flags it starts with differ. A fresh machine's flags are equal, so it
// returns 0 unless its machine kept an earlier execution's flags.
func FlagProbe() (*disasm.Disassembly, *disasm.Function) {
	return handBuilt(di(isa.Instr{Op: isa.Setne, Rd: 0}), di(isa.Instr{Op: isa.Ret}))
}
