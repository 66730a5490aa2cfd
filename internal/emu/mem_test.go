package emu

import (
	"testing"

	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

// regionCounts is a trace's per-region access counters (F15..F19).
type regionCounts struct{ heap, stack, lib, anon, other int64 }

func countsOf(tr *Trace) regionCounts {
	return regionCounts{tr.HeapAccess, tr.StackAccess, tr.LibAccess, tr.AnonAccess, tr.OthersAccess}
}

// Instruction builders for the hand-assembled memory probes. r1 holds the
// address, r2 the value, r0 the result.
func ldi(rd isa.Reg, v int64) disasm.DInstr { return di(isa.Instr{Op: isa.Ldi, Rd: rd, Imm: v}) }
func ldb() disasm.DInstr                    { return di(isa.Instr{Op: isa.Ldb, Rd: 0, Rs1: 1}) }
func stb() disasm.DInstr                    { return di(isa.Instr{Op: isa.Stb, Rs1: 1, Rs2: 2}) }
func ldw() disasm.DInstr                    { return di(isa.Instr{Op: isa.Ldw, Rd: 0, Rs1: 1}) }
func stw() disasm.DInstr                    { return di(isa.Instr{Op: isa.Stw, Rs1: 1, Rs2: 2}) }
func ret() disasm.DInstr                    { return di(isa.Instr{Op: isa.Ret}) }

// loadAt reads one byte at addr into r0.
func loadAt(addr int64) []disasm.DInstr { return []disasm.DInstr{ldi(1, addr), ldb(), ret()} }

// storeLoadAt writes v at addr and reads it back into r0.
func storeLoadAt(addr, v int64) []disasm.DInstr {
	return []disasm.DInstr{ldi(1, addr), ldi(2, v), stb(), ldb(), ret()}
}

// wordAt writes the 8-byte word v at addr and reads it back into r0.
func wordAt(addr, v int64) []disasm.DInstr {
	return []disasm.DInstr{ldi(1, addr), ldi(2, v), stw(), ldw(), ret()}
}

// TestMemoryEdgeCases pins the address space's boundaries: region ends,
// page-straddling words, never-written memory, the read-only rodata rule,
// unmapped gaps and the machine stack's limits. Every case fixes the return
// value, the trap kind and address, and the per-region access counters.
func TestMemoryEdgeCases(t *testing.T) {
	const (
		dataEnd  = minic.DataBase + minic.DataSize
		heapEnd  = minic.HeapBase + minic.HeapSize
		stackLo  = StackTop - StackSize
		page     = 4096
		word     = int64(0x0102030405060708)
		gap      = 0x50000 // between rodata and the heap
		rodataSz = 7
	)
	sp := isa.AMD64.SP()
	malloc := minic.Builtins["malloc"].Index
	rodata := []byte("rodata!")
	cases := []struct {
		name     string
		instrs   []disasm.DInstr
		data     []byte
		ret      int64
		trap     minic.TrapKind // 0: clean run
		trapAddr int64
		counts   regionCounts
	}{
		// First and last byte of each region, and the first unmapped
		// address on either side.
		{name: "data first byte", instrs: loadAt(minic.DataBase), data: []byte{0xab}, ret: 0xab, counts: regionCounts{anon: 1}},
		{name: "data last byte", instrs: storeLoadAt(dataEnd-1, 0x5a), ret: 0x5a, counts: regionCounts{anon: 2}},
		{name: "below data", instrs: loadAt(minic.DataBase - 1), trap: minic.TrapOOB, trapAddr: minic.DataBase - 1, counts: regionCounts{other: 1}},
		{name: "rodata first byte", instrs: loadAt(minic.RodataBase), ret: 'r', counts: regionCounts{lib: 1}},
		{name: "rodata last byte", instrs: loadAt(minic.RodataBase + rodataSz - 1), ret: '!', counts: regionCounts{lib: 1}},
		{name: "past rodata", instrs: loadAt(minic.RodataBase + rodataSz), trap: minic.TrapOOB, trapAddr: minic.RodataBase + rodataSz, counts: regionCounts{other: 1}},
		{name: "heap first byte", instrs: storeLoadAt(minic.HeapBase, 0x11), ret: 0x11, counts: regionCounts{heap: 2}},
		{name: "heap last byte", instrs: storeLoadAt(heapEnd-1, 0x22), ret: 0x22, counts: regionCounts{heap: 2}},
		{name: "below heap", instrs: loadAt(minic.HeapBase - 1), trap: minic.TrapOOB, trapAddr: minic.HeapBase - 1, counts: regionCounts{other: 1}},
		{name: "past heap", instrs: loadAt(heapEnd), trap: minic.TrapOOB, trapAddr: heapEnd, counts: regionCounts{other: 1}},
		{name: "stack first byte", instrs: storeLoadAt(stackLo, 0x33), ret: 0x33, counts: regionCounts{stack: 2}},
		{name: "stack last byte", instrs: storeLoadAt(StackTop-1, 0x44), ret: 0x44, counts: regionCounts{stack: 2}},
		{name: "below stack", instrs: loadAt(stackLo - 1), trap: minic.TrapOOB, trapAddr: stackLo - 1, counts: regionCounts{other: 1}},
		{name: "past stack", instrs: loadAt(StackTop), trap: minic.TrapOOB, trapAddr: StackTop, counts: regionCounts{other: 1}},

		// 8-byte words straddling a 4 KiB page boundary inside each
		// writable region, and straddling the end of the data region.
		{name: "data word across page", instrs: wordAt(minic.DataBase+page-4, word), ret: word, counts: regionCounts{anon: 16}},
		{name: "heap word across page", instrs: wordAt(minic.HeapBase+5*page-3, word), ret: word, counts: regionCounts{heap: 16}},
		{name: "stack word across page", instrs: wordAt(StackTop-page-5, word), ret: word, counts: regionCounts{stack: 16}},
		{name: "data word into rodata", instrs: []disasm.DInstr{ldi(1, dataEnd-4), ldw(), ret()},
			ret: int64('r')<<32 | int64('o')<<40 | int64('d')<<48 | int64('a')<<56, counts: regionCounts{anon: 4, lib: 4}},
		{name: "rodata word past end", instrs: []disasm.DInstr{ldi(1, minic.RodataBase+rodataSz-3), ldw(), ret()},
			trap: minic.TrapOOB, trapAddr: minic.RodataBase + rodataSz, counts: regionCounts{lib: 3, other: 1}},
		{name: "data store into rodata", instrs: []disasm.DInstr{ldi(1, dataEnd-4), ldi(2, word), stw(), ret()},
			trap: minic.TrapOOB, trapAddr: minic.RodataBase, counts: regionCounts{anon: 4, other: 1}},

		// Never-written memory reads as zero and still counts one access
		// in its own region.
		{name: "unwritten data page", instrs: loadAt(minic.DataBase + 3*page + 9), data: []byte{1, 2, 3}, counts: regionCounts{anon: 1}},
		{name: "unwritten heap page", instrs: loadAt(minic.HeapBase + 7*page + 7), counts: regionCounts{heap: 1}},
		{name: "unwritten stack page", instrs: loadAt(stackLo + 100), counts: regionCounts{stack: 1}},
		{name: "unwritten word", instrs: []disasm.DInstr{ldi(1, minic.HeapBase+page-4), ldw(), ret()}, counts: regionCounts{heap: 8}},

		// rodata is read-only; unmapped gaps trap on load and store.
		{name: "store to rodata", instrs: storeLoadAt(minic.RodataBase+1, 9), trap: minic.TrapOOB, trapAddr: minic.RodataBase + 1, counts: regionCounts{other: 1}},
		{name: "load from gap", instrs: loadAt(gap), trap: minic.TrapOOB, trapAddr: gap, counts: regionCounts{other: 1}},
		{name: "store to gap", instrs: storeLoadAt(gap, 1), trap: minic.TrapOOB, trapAddr: gap, counts: regionCounts{other: 1}},
		{name: "load from null", instrs: loadAt(0), trap: minic.TrapOOB, trapAddr: 0, counts: regionCounts{other: 1}},

		// The machine stack's limits.
		{name: "push at stack floor", instrs: []disasm.DInstr{ldi(sp, stackLo), di(isa.Instr{Op: isa.Push, Rs1: 0}), ret()},
			trap: minic.TrapStack},
		{name: "push just above floor", instrs: []disasm.DInstr{ldi(sp, stackLo+8), ldi(2, 7), di(isa.Instr{Op: isa.Push, Rs1: 2}), di(isa.Instr{Op: isa.Pop, Rd: 0}), ret()},
			ret: 7, counts: regionCounts{stack: 16}},
		{name: "pop at stack top", instrs: []disasm.DInstr{di(isa.Instr{Op: isa.Pop, Rd: 0}), ret()}, trap: minic.TrapStack},
		{name: "pop unwritten slot", instrs: []disasm.DInstr{ldi(sp, StackTop-8), di(isa.Instr{Op: isa.Pop, Rd: 0}), ret()},
			counts: regionCounts{stack: 8}},

		// Fresh malloc'd memory reads as zero before any write.
		{name: "malloc then read", instrs: []disasm.DInstr{ldi(0, 64), di(isa.Instr{Op: isa.CallI, Imm: int64(malloc)}),
			di(isa.Instr{Op: isa.Mov, Rd: 1, Rs1: 0}), ldw(), ret()}, counts: regionCounts{heap: 8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dis, fn := handBuilt(c.instrs...)
			dis.Image.Rodata = rodata
			res, err := Execute(dis, fn, &minic.Env{Data: c.data}, 0)
			if c.trap == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if res.Ret != c.ret {
					t.Errorf("ret = %#x, want %#x", res.Ret, c.ret)
				}
			} else {
				tr := wantTrap(t, err, c.trap)
				if tr.Addr != c.trapAddr {
					t.Errorf("trap addr = %#x, want %#x", tr.Addr, c.trapAddr)
				}
			}
			if got := countsOf(res.Trace); got != c.counts {
				t.Errorf("region counts = %+v, want %+v", got, c.counts)
			}
		})
	}
}

// TestExecuteLeavesEnvUntouched pins the contract that lets callers share
// one environment across executions without cloning it: the emulator reads
// Args into registers and copies Data into its own memory, and never writes
// the Env back, whether the run stores into its data region and returns or
// stores and then traps.
func TestExecuteLeavesEnvUntouched(t *testing.T) {
	stores := []disasm.DInstr{ldi(1, minic.DataBase+2), ldi(2, 0x77), stb(), stw()}
	cases := []struct {
		name   string
		instrs []disasm.DInstr
		trap   bool
	}{
		{"stores and returns", append(append([]disasm.DInstr(nil), stores...), ret()), false},
		{"stores and traps", append(append([]disasm.DInstr(nil), stores...), loadAt(0)...), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := &minic.Env{
				Args: []int64{minic.DataBase, 5, 6, 7, 8},
				Data: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
			}
			want := env.Clone()
			dis, fn := handBuilt(c.instrs...)
			res, err := Execute(dis, fn, env, 0)
			if (err != nil) != c.trap {
				t.Fatalf("err = %v, want trap %v", err, c.trap)
			}
			if got := res.Mem()[2]; got != 0x77 {
				t.Fatalf("data region byte 2 = %#x, want the stored 0x77", got)
			}
			if string(env.Data) != string(want.Data) {
				t.Errorf("env data changed: %v, want %v", env.Data, want.Data)
			}
			if len(env.Args) != len(want.Args) {
				t.Fatalf("env args resized: %v, want %v", env.Args, want.Args)
			}
			for i := range want.Args {
				if env.Args[i] != want.Args[i] {
					t.Errorf("env args changed: %v, want %v", env.Args, want.Args)
					break
				}
			}
		})
	}
}
