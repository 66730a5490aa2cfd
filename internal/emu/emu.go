// Package emu executes disassembled functions in isolation under fixed
// execution environments, collecting the dynamic features of the paper's
// Table II. It is the stand-in for PATCHECKO's device-side instrumentation
// stack (DLL injection + dlopen/dlsym to run a single exported function,
// GDBServer to trace it): given a function and an environment, it runs just
// that function — no whole-binary loading — and records instruction mix,
// stack depth statistics, per-region memory access counts, and library/
// system call counts. Abnormal executions surface as minic.TrapError, which
// the dynamic analysis engine uses to discard candidates, exactly as the
// paper removes candidates that "trigger a system exception".
package emu

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/disasm"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/obs"
)

// Stack layout. The machine stack lives well away from the data, rodata and
// heap regions shared with the source-level semantics.
const (
	StackTop  = 0x7ff0_0000
	StackSize = 1 << 20
)

// DefaultStepLimit bounds executions ("infinite loop" detection).
const DefaultStepLimit = 1 << 20

// watchdogStride is how many instructions execute between context checks.
// The wall-clock watchdog and cancellation both piggyback on this check, so
// the hot loop pays one counter test per instruction and one channel poll
// per stride.
const watchdogStride = 4096

// maxCallDepth matches the interpreter's recursion budget.
const maxCallDepth = 64

// Region tags memory areas for the Table II access counters.
type Region int

// Regions.
const (
	RegionStack Region = iota + 1
	RegionHeap
	RegionLib  // read-only library data (rodata)
	RegionAnon // the anonymously-mapped input buffer (data region)
	RegionOther
)

// Trace aggregates the 21 dynamic features of Table II plus the raw
// counters they derive from.
type Trace struct {
	BinaryFunCalls int64 // F1

	// Call-stack depth over executed instructions. The sums are integers,
	// so they stay exact however the machine batches them.
	stackDepthMin  int64
	stackDepthMax  int64
	stackDepthSum  int64
	stackDepthSum2 int64

	Instrs       int64 // F6
	CallInstrs   int64 // F8
	ArithInstrs  int64 // F9
	BranchInstrs int64 // F10
	LoadInstrs   int64 // F11
	StoreInstrs  int64 // F12

	HeapAccess   int64 // F15
	StackAccess  int64 // F16
	LibAccess    int64 // F17
	AnonAccess   int64 // F18
	OthersAccess int64 // F19

	LibCalls int64 // F20
	Syscalls int64 // F21

	// funcs holds, for every function the execution entered, how often
	// each of its instructions ran (indexed by instruction position). F7
	// through F14 and the executed-address set derive from these counts. A
	// count never exceeds the step limit (1<<20 by default), so int32 is
	// ample. A pooled machine's trace keeps the count slices past len(funcs)
	// of earlier executions for countsFor to reuse.
	funcs []funcCounts
}

// funcCounts is one function's per-instruction execution counts.
type funcCounts struct {
	fn     *disasm.Function
	counts []int32
}

func newTrace() *Trace {
	return &Trace{stackDepthMin: math.MaxInt64}
}

// reset zeroes t for a new execution. The count slices stay behind
// len(funcs) for countsFor to reuse.
func (t *Trace) reset() {
	*t = Trace{stackDepthMin: math.MaxInt64, funcs: t.funcs[:0]}
}

// release drops every function pointer t holds, so a pooled trace pins no
// image. The spare slots past len(funcs) hold none: an execution only
// appends to funcs, and the release after it cleared every slot it filled.
func (t *Trace) release() {
	for i := range t.funcs {
		t.funcs[i].fn = nil
	}
}

// countsFor returns fn's execution counts, zeroed the first time the
// execution enters fn: a spare slice of an earlier execution when one is
// large enough, a new one otherwise. An execution enters a handful of
// functions, so a linear scan beats a map here.
func (t *Trace) countsFor(fn *disasm.Function) []int32 {
	for _, fc := range t.funcs {
		if fc.fn == fn {
			return fc.counts
		}
	}
	n := len(fn.Instrs)
	var c []int32
	if len(t.funcs) < cap(t.funcs) {
		if spare := t.funcs[:len(t.funcs)+1][len(t.funcs)].counts; cap(spare) >= n {
			c = spare[:n]
			clear(c)
		}
	}
	if c == nil {
		c = make([]int32, n)
	}
	t.funcs = append(t.funcs, funcCounts{fn: fn, counts: c})
	return c
}

// UniqueInstrs is feature F7.
func (t *Trace) UniqueInstrs() int64 {
	var n int64
	for _, fc := range t.funcs {
		for _, c := range fc.counts {
			if c != 0 {
				n++
			}
		}
	}
	return n
}

// PCs returns the set of executed instruction addresses. The fuzzer uses it
// as its coverage signal.
func (t *Trace) PCs() map[uint64]struct{} {
	out := make(map[uint64]struct{})
	for _, fc := range t.funcs {
		for i, c := range fc.counts {
			if c != 0 {
				out[fc.fn.Addr+uint64(fc.fn.Instrs[i].Offset)] = struct{}{}
			}
		}
	}
	return out
}

// StackDepthStats returns features F2..F5 (min, max, mean, stddev of the
// call-stack depth sampled at every executed instruction).
func (t *Trace) StackDepthStats() (minD, maxD int64, mean, std float64) {
	if t.Instrs == 0 {
		return 0, 0, 0, 0
	}
	mean = float64(t.stackDepthSum) / float64(t.Instrs)
	variance := float64(t.stackDepthSum2)/float64(t.Instrs) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return t.stackDepthMin, t.stackDepthMax, mean, math.Sqrt(variance)
}

// MaxBranchFreq is feature F13: the execution count of the hottest single
// branch instruction.
func (t *Trace) MaxBranchFreq() int64 { return t.maxFreq(classBranch) }

// MaxArithFreq is feature F14.
func (t *Trace) MaxArithFreq() int64 { return t.maxFreq(classArith) }

// maxFreq is the highest execution count of any instruction whose op is in
// the class.
func (t *Trace) maxFreq(class uint8) int64 {
	var best int64
	for _, fc := range t.funcs {
		for i, c := range fc.counts {
			if int64(c) > best && opClass[fc.fn.Instrs[i].Op] == class {
				best = int64(c)
			}
		}
	}
	return best
}

// Instruction classes of the Table II mix features. An op is in at most one
// class, tested in this order.
const (
	classNone   uint8 = iota
	classArith        // F9, F14: integer and floating-point arithmetic
	classBranch       // F10, F13
	classCall         // F8
	classLoad         // F11
	classStore        // F12
	numClasses
)

// opClass is every op's class. The F8-F12 totals and the F13/F14 scans
// both read it, so they cannot disagree.
var opClass = func() (t [256]uint8) {
	for i := range t {
		switch op := isa.Op(i); {
		case op.IsArith() || op.IsArithFP():
			t[i] = classArith
		case op.IsBranch():
			t[i] = classBranch
		case op.IsCall():
			t[i] = classCall
		case op.IsLoad():
			t[i] = classLoad
		case op.IsStore():
			t[i] = classStore
		}
	}
	return t
}()

// Vector flattens the trace into the 21-dimensional dynamic feature vector
// in Table II order.
func (t *Trace) Vector() [21]float64 {
	minD, maxD, mean, std := t.StackDepthStats()
	return [21]float64{
		float64(t.BinaryFunCalls),
		float64(minD),
		float64(maxD),
		mean,
		std,
		float64(t.Instrs),
		float64(t.UniqueInstrs()),
		float64(t.CallInstrs),
		float64(t.ArithInstrs),
		float64(t.BranchInstrs),
		float64(t.LoadInstrs),
		float64(t.StoreInstrs),
		float64(t.MaxBranchFreq()),
		float64(t.MaxArithFreq()),
		float64(t.HeapAccess),
		float64(t.StackAccess),
		float64(t.LibAccess),
		float64(t.AnonAccess),
		float64(t.OthersAccess),
		float64(t.LibCalls),
		float64(t.Syscalls),
	}
}

// Result is a completed execution.
type Result struct {
	Ret   int64
	Trace *Trace
	data  [dataPages]*page // final data-region pages
}

// Mem returns the final data-region contents.
func (r *Result) Mem() []byte {
	out := make([]byte, minic.DataSize)
	for i, p := range r.data {
		if p != nil {
			copy(out[i*pageSize:], p[:])
		}
	}
	return out
}

// The writable regions are tables of 4 KiB pages, materialised by their
// first store: an execution touches a few KiB of its 2 MiB address space,
// and a page never written reads as zero.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	dataPages  = minic.DataSize >> pageShift
	heapPages  = minic.HeapSize >> pageShift
	stackPages = StackSize >> pageShift
)

type page [pageSize]byte

// maxSparePages bounds the pages a released machine keeps for reuse, so a
// pooled machine cannot hoard the pages of its most memory-hungry
// execution. On a cold device scan about 90% of executions materialise two
// pages (the input buffer's and the top of the stack) and 1-3% more than
// eight.
const maxSparePages = 8

// taggedMem is the emulator's address space with per-region access counting.
type taggedMem struct {
	rodata []byte
	data   [dataPages]*page
	heap   [heapPages]*page
	stack  [stackPages]*page
	trace  *Trace

	// used lists the page-table slots the execution materialised, so that
	// release visits only those. spare holds pages earlier executions
	// wrote; materialise clears one before handing it out.
	used  []**page
	spare []*page
}

var _ minic.Memory = (*taggedMem)(nil)

// materialise backs the empty page-table slot with a zero page: a cleared
// spare page when there is one, a new page otherwise.
func (m *taggedMem) materialise(slot **page) *page {
	var p *page
	if n := len(m.spare); n > 0 {
		p = m.spare[n-1]
		m.spare = m.spare[:n-1]
		clear(p[:])
	} else {
		p = new(page)
	}
	*slot = p
	m.used = append(m.used, slot)
	return p
}

// releasePages empties every slot the execution materialised and keeps up
// to maxSparePages of their pages for the next one. A slot already emptied
// (the data pages a Result took) is skipped.
func (m *taggedMem) releasePages() {
	for _, slot := range m.used {
		if p := *slot; p != nil {
			*slot = nil
			if len(m.spare) < maxSparePages {
				m.spare = append(m.spare, p)
			}
		}
	}
	m.used = m.used[:0]
}

// loadData copies an environment's input buffer into the data pages it
// covers.
func (m *taggedMem) loadData(b []byte) {
	if len(b) > minic.DataSize {
		b = b[:minic.DataSize]
	}
	for i := 0; i*pageSize < len(b); i++ {
		copy(m.materialise(&m.data[i])[:], b[i*pageSize:])
	}
}

// region classifies addr, returning the page table backing it (nil for
// rodata and unmapped addresses) and its offset within the region.
func (m *taggedMem) region(addr int64) (Region, []*page, int64) {
	switch {
	case addr >= minic.DataBase && addr < minic.DataBase+minic.DataSize:
		return RegionAnon, m.data[:], addr - minic.DataBase
	case addr >= minic.RodataBase && addr < minic.RodataBase+int64(len(m.rodata)):
		return RegionLib, nil, addr - minic.RodataBase
	case addr >= minic.HeapBase && addr < minic.HeapBase+minic.HeapSize:
		return RegionHeap, m.heap[:], addr - minic.HeapBase
	case addr >= StackTop-StackSize && addr < StackTop:
		return RegionStack, m.stack[:], addr - (StackTop - StackSize)
	}
	return RegionOther, nil, 0
}

// count adds n accesses to region r's counter.
func (m *taggedMem) count(r Region, n int64) {
	switch r {
	case RegionStack:
		m.trace.StackAccess += n
	case RegionHeap:
		m.trace.HeapAccess += n
	case RegionLib:
		m.trace.LibAccess += n
	case RegionAnon:
		m.trace.AnonAccess += n
	default:
		m.trace.OthersAccess += n
	}
}

func (m *taggedMem) LoadByte(addr int64) (byte, error) {
	r, pages, off := m.region(addr)
	m.count(r, 1)
	switch r {
	case RegionOther:
		return 0, &minic.TrapError{Kind: minic.TrapOOB, Addr: addr}
	case RegionLib:
		return m.rodata[off], nil
	}
	if p := pages[off>>pageShift]; p != nil {
		return p[off&pageMask], nil
	}
	return 0, nil
}

func (m *taggedMem) StoreByte(addr int64, v byte) error {
	r, pages, off := m.region(addr)
	if pages == nil { // unmapped, or rodata, which is not writable
		m.trace.OthersAccess++
		return &minic.TrapError{Kind: minic.TrapOOB, Addr: addr}
	}
	m.count(r, 1)
	p := pages[off>>pageShift]
	if p == nil {
		p = m.materialise(&pages[off>>pageShift])
	}
	p[off&pageMask] = v
	return nil
}

// loadWord reads the little-endian word at addr. A word inside one page of
// one region (or inside rodata) is read in one access and counts 8 region
// accesses; any other word, one that crosses a page or region edge or
// traps, takes minic.LoadWord's byte-wise path, whose counts and trap
// address are the reference.
func (m *taggedMem) loadWord(addr int64) (int64, error) {
	r, pages, off := m.region(addr)
	switch {
	case pages != nil && off&pageMask <= pageSize-8:
		m.count(r, 8)
		if p := pages[off>>pageShift]; p != nil {
			return int64(binary.LittleEndian.Uint64(p[off&pageMask:])), nil
		}
		return 0, nil
	case r == RegionLib && off+8 <= int64(len(m.rodata)):
		m.trace.LibAccess += 8
		return int64(binary.LittleEndian.Uint64(m.rodata[off:])), nil
	}
	return minic.LoadWord(m, addr)
}

// storeWord writes v little-endian at addr: in one access when the word
// lies inside one page of a writable region, byte-wise otherwise.
func (m *taggedMem) storeWord(addr, v int64) error {
	r, pages, off := m.region(addr)
	if pages == nil || off&pageMask > pageSize-8 {
		return minic.StoreWord(m, addr, v)
	}
	m.count(r, 8)
	p := pages[off>>pageShift]
	if p == nil {
		p = m.materialise(&pages[off>>pageShift])
	}
	binary.LittleEndian.PutUint64(p[off&pageMask:], uint64(v))
	return nil
}

// frame is one activation record of the Go-side return stack (the emulator
// models the link register in Go, like hardware keeps it out of data memory).
type frame struct {
	fn     *disasm.Function
	counts []int32 // fn's execution counts
	pc     int     // resume instruction index in fn
}

// Machine executes one function invocation at a time. Every execution runs
// on a machine from the machines pool: reset readies it, release returns it
// clean.
type Machine struct {
	ctx   context.Context // nil = no watchdog, no cancellation
	dis   *disasm.Disassembly
	mem   taggedMem
	regs  [16]int64
	args  [16]int64 // builtin argument buffer
	flagL int64
	flagR int64
	bst   minic.BuiltinState // held by value: one allocation fewer per execution
	trace *Trace
	limit int64
	spReg int // the stack pointer's register number

	fn     *disasm.Function
	links  *disasm.Links // fn's branch targets and callees
	counts []int32       // fn's execution counts, indexed like fn.Instrs
	pc     int
	frames []frame

	// depthSteps counts the instructions run at the current call depth;
	// flushDepth hands them to the trace whenever the depth changes.
	depthSteps int64
}

// machines recycles emulator machines across executions: once its
// worker's machine is warm, an execution allocates no machine, page table,
// page or count slice beyond what a Result takes. sync.Pool keeps machines
// per P, so a scan's workers each reuse roughly one, with nothing to plumb
// through the callers. A pooled machine holds no reference into any image,
// maps no page and keeps at most maxSparePages spare ones (see release).
var machines = sync.Pool{New: func() any { return new(Machine) }}

// Execute runs fn under env, with the given instruction budget
// (DefaultStepLimit if limit <= 0). The environment's scalar arguments load
// into r0..r3 — the same convention for every candidate function, which is
// what lets one environment drive many candidates, as in the paper.
//
// On abnormal termination the returned Result is non-nil and carries the
// trace collected up to the fault — the partial profile the dynamic stage
// consumes — alongside the *minic.TrapError.
//
// The emulator only reads env: the arguments load into registers and the
// data buffer is copied into the machine's own memory, so one environment
// may drive any number of executions, concurrent ones included.
func Execute(dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) (*Result, error) {
	return ExecuteObserved(nil, dis, fn, env, limit, nil)
}

// ExecuteObserved is Execute with a watchdog context, reporting into an
// observability sink.
//
// The context's deadline is the execution's wall-clock budget, checked
// every watchdogStride instructions alongside the step limit: an expired
// deadline surfaces as a minic.TrapBudget trap (an abnormal execution of
// this one function), while plain cancellation returns the context's error
// verbatim (the whole scan is being torn down, not this function
// misbehaving). A nil or context.Background context disables both checks
// at zero per-step cost.
//
// The sink counts executions started, instructions executed, and traps by
// kind. A nil sink is the no-op default — the run itself is identical
// either way, and the accounting is a handful of atomic adds per
// execution, off the per-step hot loop.
func ExecuteObserved(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64, o *obs.Metrics) (*Result, error) {
	m := machines.Get().(*Machine)
	// On a trap the result is partial: the trace up to the fault is the
	// truncated profile the fault-tolerant dynamic stage ranks with.
	ret, err := m.exec(ctx, dis, fn, env, limit)
	observeExec(o, m.trace, err)
	// The result takes the trace and the data pages; the machine makes new
	// ones for its next execution.
	res := &Result{Ret: ret, Trace: m.trace, data: m.mem.data}
	m.trace, m.mem.trace, m.mem.data = nil, nil, [dataPages]*page{}
	m.release()
	machines.Put(m)
	return res, err
}

// Profile is ExecuteObserved for a caller that needs only the Table II
// feature vector: it returns the execution's Trace.Vector (the trace up to
// the fault when it traps) with the same error. The trace and the pages
// stay with the pooled machine, so a warm execution allocates nothing.
func Profile(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64, o *obs.Metrics) ([21]float64, error) {
	m := machines.Get().(*Machine)
	_, err := m.exec(ctx, dis, fn, env, limit)
	observeExec(o, m.trace, err)
	vec := m.trace.Vector()
	m.release()
	machines.Put(m)
	return vec, err
}

// exec resets m for fn's invocation under env and runs it, returning r0. An
// armed faultinject.ExecTrap fails the execution before its first
// instruction, with an empty trace and a zero return. A run that panics
// never reaches its caller's release, so its machine never returns to the
// pool.
func (m *Machine) exec(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) (int64, error) {
	m.reset(ctx, dis, fn, env, limit)
	if err := faultinject.Fire(faultinject.ExecTrap, dis.Image.LibName+":"+fn.Name); err != nil {
		return 0, err
	}
	err := m.run()
	return m.regs[0], err
}

// reset readies m for fn's invocation under env, in exactly the state a
// new(Machine) would reach: registers, flags, builtin state, call frames
// and the depth run at their initial values, a zeroed trace, and the data
// region holding env's buffer. What an earlier execution left is reused:
// the trace's count slices, the frame stack's capacity and the spare pages
// release kept, each cleared when it backs a page again.
func (m *Machine) reset(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) {
	if limit <= 0 {
		limit = DefaultStepLimit
	}
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // no deadline and not cancellable: skip the polling
	}
	if m.trace == nil {
		m.trace = newTrace()
	} else {
		m.trace.reset()
	}
	m.ctx, m.dis, m.limit = ctx, dis, limit
	m.mem.rodata, m.mem.trace = dis.Image.Rodata, m.trace
	m.mem.loadData(env.Data)
	m.regs, m.args = [16]int64{}, [16]int64{}
	m.flagL, m.flagR = 0, 0
	m.bst = *minic.NewBuiltinState()
	m.spReg = dis.Arch.NumRegs - 1
	m.fn, m.links, m.counts, m.pc = fn, dis.Links(fn), m.trace.countsFor(fn), 0
	m.frames = m.frames[:0]
	m.depthSteps = 0
	for i, a := range env.Args {
		if i >= 4 {
			break
		}
		m.regs[i] = a
	}
	m.regs[m.spReg] = StackTop
}

// release readies m for the pool. It drops every reference into the image
// it ran (the context, the disassembly and its rodata, the function and
// its links, every frame, the trace's function pointers), so a pooled
// machine pins no image. It empties the page tables and keeps at most
// maxSparePages of their pages.
func (m *Machine) release() {
	m.ctx, m.dis, m.mem.rodata = nil, nil, nil
	m.fn, m.links, m.counts = nil, nil, nil
	clear(m.frames[:cap(m.frames)])
	if m.trace != nil {
		m.trace.release()
	}
	m.mem.releasePages()
}

// observeExec records one execution's accounting: the execution itself, its
// instruction count, and — when it trapped — the trap kind. Cancellation is
// not a trap and counts only as an execution.
func observeExec(o *obs.Metrics, tr *Trace, err error) {
	if o == nil {
		return
	}
	o.Add(obs.CtrExecutions, 1)
	if tr != nil {
		o.Add(obs.CtrExecSteps, tr.Instrs)
	}
	if err == nil {
		return
	}
	if t, ok := minic.IsTrap(err); ok {
		o.Add(obs.CtrExecTrapped, 1)
		if c, ok := trapCounter(t.Kind); ok {
			o.Add(c, 1)
		}
	}
}

// trapCounter maps a trap kind to its per-kind counter.
func trapCounter(k minic.TrapKind) (obs.Counter, bool) {
	switch k {
	case minic.TrapOOB:
		return obs.CtrTrapOOB, true
	case minic.TrapDivZero:
		return obs.CtrTrapDivZero, true
	case minic.TrapBadCall:
		return obs.CtrTrapBadCall, true
	case minic.TrapStepLimit:
		return obs.CtrTrapStepLimit, true
	case minic.TrapStack:
		return obs.CtrTrapStack, true
	case minic.TrapDecode:
		return obs.CtrTrapDecode, true
	case minic.TrapBudget:
		return obs.CtrTrapBudget, true
	default:
		return 0, false
	}
}

// run executes until the outermost function returns or the execution
// traps, then completes the trace: the last depth run, and the F8-F12
// instruction mix, which is each executed instruction's count summed by op
// class. Every exit, trap or not, passes through here.
func (m *Machine) run() error {
	err := m.loop()
	m.flushDepth()
	var byClass [numClasses]int64
	for _, fc := range m.trace.funcs {
		for i, c := range fc.counts {
			byClass[opClass[fc.fn.Instrs[i].Op]] += int64(c)
		}
	}
	tr := m.trace
	tr.ArithInstrs = byClass[classArith]
	tr.BranchInstrs = byClass[classBranch]
	tr.CallInstrs = byClass[classCall]
	tr.LoadInstrs = byClass[classLoad]
	tr.StoreInstrs = byClass[classStore]
	return err
}

func (m *Machine) loop() error {
	tr := m.trace
	for {
		if uint(m.pc) >= uint(len(m.fn.Instrs)) {
			// The message deliberately omits the function's address: trap
			// text must be relocation-invariant so identical function copies
			// at different link addresses fail identically (the dedup
			// engine's sharing contract).
			return &minic.TrapError{Kind: minic.TrapDecode,
				Msg: fmt.Sprintf("pc %d outside function", m.pc)}
		}
		in := &m.fn.Instrs[m.pc]

		tr.Instrs++
		if tr.Instrs > m.limit {
			return &minic.TrapError{Kind: minic.TrapStepLimit}
		}
		if m.ctx != nil && tr.Instrs%watchdogStride == 0 {
			if err := m.poll(); err != nil {
				return err
			}
		}
		m.counts[m.pc]++
		m.depthSteps++

		if done, err := m.step(in); done || err != nil {
			return err
		}
	}
}

// poll is the watchdog check: a TrapBudget trap once the deadline passed,
// the context's error once it was cancelled.
func (m *Machine) poll() error {
	select {
	case <-m.ctx.Done():
		if m.ctx.Err() == context.DeadlineExceeded {
			return &minic.TrapError{Kind: minic.TrapBudget,
				Msg: fmt.Sprintf("after %d instructions", m.trace.Instrs)}
		}
		return m.ctx.Err()
	default:
		return nil
	}
}

// flushDepth adds the instructions run at the current call depth to the
// F2-F5 accumulators. It runs before every Call pushes a frame, before
// every Ret pops one, and when run returns, so each instruction counts at
// the depth it executed at.
func (m *Machine) flushDepth() {
	n := m.depthSteps
	if n == 0 {
		return
	}
	m.depthSteps = 0
	d := int64(len(m.frames)) + 1
	tr := m.trace
	if d < tr.stackDepthMin {
		tr.stackDepthMin = d
	}
	if d > tr.stackDepthMax {
		tr.stackDepthMax = d
	}
	tr.stackDepthSum += d * n
	tr.stackDepthSum2 += d * d * n
}

// step executes one instruction; it returns true when the outermost
// function returned.
func (m *Machine) step(in *disasm.DInstr) (bool, error) {
	next := m.pc + 1
	switch op := in.Op; op {
	case isa.Nop:
	case isa.Ldi:
		m.regs[in.Rd] = in.Imm
	case isa.Mov:
		m.regs[in.Rd] = m.regs[in.Rs1]

	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.AndOp, isa.OrOp,
		isa.XorOp, isa.Shl, isa.Shr, isa.Fadd, isa.Fsub, isa.Fmul, isa.Fdiv,
		isa.Seq, isa.Sne, isa.Slt, isa.Sle, isa.Sgt, isa.Sge:
		v, err := minic.EvalBinOp(binOpOf(op), m.regs[in.Rs1], m.regs[in.Rs2])
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v

	case isa.Add2, isa.Sub2, isa.Mul2, isa.Div2, isa.Mod2, isa.And2, isa.Or2,
		isa.Xor2, isa.Shl2, isa.Shr2, isa.Fadd2, isa.Fsub2, isa.Fmul2, isa.Fdiv2:
		v, err := minic.EvalBinOp(binOpOf(op), m.regs[in.Rd], m.regs[in.Rs1])
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v

	case isa.AddI, isa.SubI, isa.MulI, isa.AndI, isa.OrI, isa.XorI, isa.ShlI, isa.ShrI:
		v, err := minic.EvalBinOp(binOpOf(op), m.regs[in.Rd], in.Imm)
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v

	case isa.NegOp, isa.NotOp, isa.Inv:
		m.regs[in.Rd] = minic.EvalUnOp(unOpOf(op), m.regs[in.Rs1])
	case isa.Neg2, isa.Not2, isa.Inv2:
		m.regs[in.Rd] = minic.EvalUnOp(unOpOf(op), m.regs[in.Rd])

	case isa.Cmp:
		m.flagL, m.flagR = m.regs[in.Rs1], m.regs[in.Rs2]
	case isa.CmpI:
		m.flagL, m.flagR = m.regs[in.Rs1], in.Imm
	case isa.Sete:
		m.regs[in.Rd] = b2i(m.flagL == m.flagR)
	case isa.Setne:
		m.regs[in.Rd] = b2i(m.flagL != m.flagR)
	case isa.Setl:
		m.regs[in.Rd] = b2i(m.flagL < m.flagR)
	case isa.Setle:
		m.regs[in.Rd] = b2i(m.flagL <= m.flagR)
	case isa.Setg:
		m.regs[in.Rd] = b2i(m.flagL > m.flagR)
	case isa.Setge:
		m.regs[in.Rd] = b2i(m.flagL >= m.flagR)

	case isa.Ldb:
		b, err := m.mem.LoadByte(m.regs[in.Rs1] + in.Imm)
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = int64(b)
	case isa.Stb:
		if err := m.mem.StoreByte(m.regs[in.Rs1]+in.Imm, byte(m.regs[in.Rs2])); err != nil {
			return false, err
		}
	case isa.Ldw:
		v, err := m.mem.loadWord(m.regs[in.Rs1] + in.Imm)
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v
	case isa.Stw:
		if err := m.mem.storeWord(m.regs[in.Rs1]+in.Imm, m.regs[in.Rs2]); err != nil {
			return false, err
		}

	case isa.Jmp:
		return false, m.jump(in)
	case isa.Jz:
		if m.regs[in.Rs1] == 0 {
			return false, m.jump(in)
		}
		m.pc = next
		return false, nil
	case isa.Jnz:
		if m.regs[in.Rs1] != 0 {
			return false, m.jump(in)
		}
		m.pc = next
		return false, nil
	case isa.Je, isa.Jne, isa.Jl, isa.Jle, isa.Jg, isa.Jge:
		if m.flagTaken(op) {
			return false, m.jump(in)
		}
		m.pc = next
		return false, nil

	case isa.Call:
		callee, ok := m.links.Callee(m.pc)
		if !ok {
			return false, &minic.TrapError{Kind: minic.TrapBadCall,
				Msg: fmt.Sprintf("call to unmapped address %#x", in.Imm)}
		}
		if len(m.frames) >= maxCallDepth {
			return false, &minic.TrapError{Kind: minic.TrapStack, Msg: "call stack overflow"}
		}
		m.trace.BinaryFunCalls++
		m.flushDepth()
		m.frames = append(m.frames, frame{fn: m.fn, counts: m.counts, pc: next})
		m.fn, m.counts, m.pc = callee, m.trace.countsFor(callee), 0
		m.links = m.dis.Links(callee)
		return false, nil

	case isa.CallI:
		b, ok := minic.BuiltinByIndex(int(in.Imm))
		if !ok {
			return false, &minic.TrapError{Kind: minic.TrapBadCall,
				Msg: fmt.Sprintf("bad import index %d", in.Imm)}
		}
		args := m.args[:b.NArgs]
		copy(args, m.regs[:])
		v, err := b.Fn(&m.mem, &m.bst, args)
		if err != nil {
			return false, err
		}
		if b.Kind == minic.KindSys {
			m.trace.Syscalls++
		} else {
			m.trace.LibCalls++
		}
		m.regs[0] = v

	case isa.Ret:
		if len(m.frames) == 0 {
			return true, nil
		}
		m.flushDepth()
		top := m.frames[len(m.frames)-1]
		m.frames = m.frames[:len(m.frames)-1]
		m.fn, m.counts, m.pc = top.fn, top.counts, top.pc
		m.links = m.dis.Links(top.fn)
		return false, nil

	case isa.Push:
		sp := m.regs[m.spReg] - 8
		if sp < StackTop-StackSize {
			return false, &minic.TrapError{Kind: minic.TrapStack, Msg: "stack overflow"}
		}
		m.regs[m.spReg] = sp
		if err := m.mem.storeWord(sp, m.regs[in.Rs1]); err != nil {
			return false, err
		}
	case isa.Pop:
		sp := m.regs[m.spReg]
		if sp >= StackTop {
			return false, &minic.TrapError{Kind: minic.TrapStack, Msg: "stack underflow"}
		}
		v, err := m.mem.loadWord(sp)
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v
		m.regs[m.spReg] = sp + 8
	case isa.AddSp:
		m.regs[m.spReg] += in.Imm

	default:
		return false, &minic.TrapError{Kind: minic.TrapDecode,
			Msg: fmt.Sprintf("unimplemented op %v", in.Op)}
	}
	m.pc = next
	return false, nil
}

// jump takes the branch at the current instruction through fn's links.
func (m *Machine) jump(in *disasm.DInstr) error {
	idx, ok := m.links.BranchTarget(m.pc)
	if !ok {
		return &minic.TrapError{Kind: minic.TrapDecode,
			Msg: fmt.Sprintf("branch to mid-instruction offset %d", in.Imm)}
	}
	m.pc = idx
	return nil
}

func (m *Machine) flagTaken(op isa.Op) bool {
	switch op {
	case isa.Je:
		return m.flagL == m.flagR
	case isa.Jne:
		return m.flagL != m.flagR
	case isa.Jl:
		return m.flagL < m.flagR
	case isa.Jle:
		return m.flagL <= m.flagR
	case isa.Jg:
		return m.flagL > m.flagR
	default:
		return m.flagL >= m.flagR
	}
}

// binOpOf maps ISA ALU ops onto the shared source-level semantics, keeping
// interpreter and emulator arithmetic identical by construction.
func binOpOf(op isa.Op) minic.BinOp {
	switch op {
	case isa.Add, isa.Add2, isa.AddI:
		return minic.OpAdd
	case isa.Sub, isa.Sub2, isa.SubI:
		return minic.OpSub
	case isa.Mul, isa.Mul2, isa.MulI:
		return minic.OpMul
	case isa.Div, isa.Div2:
		return minic.OpDiv
	case isa.Mod, isa.Mod2:
		return minic.OpMod
	case isa.AndOp, isa.And2, isa.AndI:
		return minic.OpAnd
	case isa.OrOp, isa.Or2, isa.OrI:
		return minic.OpOr
	case isa.XorOp, isa.Xor2, isa.XorI:
		return minic.OpXor
	case isa.Shl, isa.Shl2, isa.ShlI:
		return minic.OpShl
	case isa.Shr, isa.Shr2, isa.ShrI:
		return minic.OpShr
	case isa.Fadd, isa.Fadd2:
		return minic.OpFAdd
	case isa.Fsub, isa.Fsub2:
		return minic.OpFSub
	case isa.Fmul, isa.Fmul2:
		return minic.OpFMul
	case isa.Fdiv, isa.Fdiv2:
		return minic.OpFDiv
	case isa.Seq:
		return minic.OpEq
	case isa.Sne:
		return minic.OpNe
	case isa.Slt:
		return minic.OpLt
	case isa.Sle:
		return minic.OpLe
	case isa.Sgt:
		return minic.OpGt
	default: // isa.Sge
		return minic.OpGe
	}
}

func unOpOf(op isa.Op) minic.UnOp {
	switch op {
	case isa.NegOp, isa.Neg2:
		return minic.OpNeg
	case isa.NotOp, isa.Not2:
		return minic.OpNot
	default:
		return minic.OpInv
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ExecuteByName looks the function up by symbol and executes it — a
// convenience for tests and ground-truth runs on unstripped images.
func ExecuteByName(dis *disasm.Disassembly, name string, env *minic.Env, limit int64) (*Result, error) {
	fn, ok := dis.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("emu: no function %q in %s", name, dis.Image.LibName)
	}
	return Execute(dis, fn, env, limit)
}
