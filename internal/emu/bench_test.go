package emu

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

// BenchmarkExecute measures emulated instructions per second and the
// per-execution allocation on a memory-heavy checksum loop (the pipeline's
// dominant dynamic-stage cost). The short case runs about 1.3k instructions,
// the size of a typical candidate execution, so its B/op is the fixed
// per-execution cost; the long case runs 4096 iterations and measures the
// hot loop.
func BenchmarkExecute(b *testing.B) {
	mod := &minic.Module{Name: "b", Funcs: []*minic.Func{
		minic.NewFunc("hot", []string{"p", "n"},
			minic.Set("s", minic.I(0)),
			minic.Set("i", minic.I(0)),
			minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
				minic.Set("s", minic.Xor(minic.Shl(minic.V("s"), minic.I(3)),
					minic.Ld(minic.V("p"), minic.And(minic.V("i"), minic.I(255))))),
				minic.Set("i", minic.Add(minic.V("i"), minic.I(1)))),
			minic.Ret(minic.V("s"))),
	}}
	for _, size := range []struct {
		name  string
		iters int64
	}{{"short", 64}, {"loop4096", 4096}} {
		for _, arch := range isa.All() {
			b.Run(size.name+"/"+arch.Name, func(b *testing.B) {
				im, err := compiler.Compile(mod, arch, compiler.O2)
				if err != nil {
					b.Fatal(err)
				}
				dis, err := disasm.Disassemble(im)
				if err != nil {
					b.Fatal(err)
				}
				fn, _ := dis.Lookup("hot")
				env := &minic.Env{Args: []int64{minic.DataBase, size.iters}, Data: make([]byte, 256)}
				res, err := Execute(dis, fn, env, 1<<22)
				if err != nil {
					b.Fatal(err)
				}
				perIter := res.Trace.Instrs
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Execute(dis, fn, env, 1<<22); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(perIter)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
			})
		}
	}
}
