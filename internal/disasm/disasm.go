// Package disasm recovers functions and control-flow graphs from binary
// images. For stripped images it implements the "robust heuristic
// technique" the paper delegates to IDA Pro: function boundaries are found
// by scanning for the architecture's canonical prologue byte pattern and
// validating each candidate by decoding the region it would span; candidates
// that do not decode cleanly are merged back into their predecessor (they
// were data bytes — immediates — masquerading as prologues).
package disasm

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"repro/internal/binimg"
	"repro/internal/isa"
)

// BlockKind classifies a basic block, mirroring the fcb_* static features
// of the paper's Table I.
type BlockKind int

// Block kinds.
const (
	BlockNormal BlockKind = iota + 1
	BlockRet              // ends in a return
	BlockError            // execution passes the function end
)

// DInstr is a decoded instruction with its position inside the function.
type DInstr struct {
	isa.Instr

	Offset int // byte offset from function start
	Size   int
}

// Block is one basic block.
type Block struct {
	Index       int
	First, Last int // instruction index range, inclusive
	Succs       []int
	Kind        BlockKind
}

// NumInstrs returns the instruction count of the block.
func (b *Block) NumInstrs() int { return b.Last - b.First + 1 }

// Function is one disassembled function with its CFG.
type Function struct {
	Name   string // empty for stripped images
	Addr   uint64
	Size   uint64
	Instrs []DInstr
	Blocks []Block

	offToIdx map[int]int
	links    atomic.Pointer[Links] // built by Disassembly.Links on first execution
}

// IndexAtOffset resolves a branch byte offset to an instruction index.
func (f *Function) IndexAtOffset(off int) (int, bool) {
	i, ok := f.offToIdx[off]
	return i, ok
}

// Links are a function's control transfers resolved for execution: the
// instruction index each branch lands on and the function each direct call
// enters. An emulator follows them per taken branch and per call, where an
// offset or address map lookup would cost a hash each time.
type Links struct {
	dis *Disassembly // the disassembly calls were resolved against
	// targets holds, per instruction, the target's instruction index for a
	// branch and the callee's slot in callees for a Call; -1 marks a branch
	// into the middle of an instruction, a call to an address hosting no
	// function, and every other op.
	targets []int32
	callees []*Function
}

// BranchTarget returns the index of the instruction the branch at
// instruction i lands on, or false when its offset is not an instruction
// boundary.
func (l *Links) BranchTarget(i int) (int, bool) {
	t := l.targets[i]
	return int(t), t >= 0
}

// Callee returns the function the Call at instruction i enters, or false
// when its address hosts no function.
func (l *Links) Callee(i int) (*Function, bool) {
	t := l.targets[i]
	if t < 0 {
		return nil, false
	}
	return l.callees[t], true
}

// Links returns f's links with calls resolved through d.FuncAt. They are
// built the first time f executes and cached on f, so functions that never
// execute cost nothing; the cache remembers d, and executing f under another
// disassembly rebuilds it. Safe for concurrent use: racing builders produce
// identical tables and the last store wins.
func (d *Disassembly) Links(f *Function) *Links {
	if l := f.links.Load(); l != nil && l.dis == d {
		return l
	}
	l := &Links{dis: d, targets: make([]int32, len(f.Instrs))}
	for i, in := range f.Instrs {
		t := -1
		switch {
		case in.Op.IsBranch():
			if idx, ok := f.IndexAtOffset(int(in.Imm)); ok {
				t = idx
			}
		case in.Op == isa.Call:
			if callee, ok := d.FuncAt(uint64(in.Imm)); ok {
				t = len(l.callees)
				l.callees = append(l.callees, callee)
			}
		}
		l.targets[i] = int32(t)
	}
	f.links.Store(l)
	return l
}

// ByteSize returns the total size of basic block b in bytes.
func (f *Function) ByteSize(b *Block) int {
	last := f.Instrs[b.Last]
	return last.Offset + last.Size - f.Instrs[b.First].Offset
}

// LocalSize reports the stack frame size the function allocates for locals
// (the size_local static feature), recovered from the AddSp adjustment in
// the prologue.
func (f *Function) LocalSize() int64 {
	for i, in := range f.Instrs {
		if i > 4 {
			break
		}
		if in.Op == isa.AddSp && in.Imm < 0 {
			return -in.Imm
		}
	}
	return 0
}

// Disassembly is a fully-disassembled image.
type Disassembly struct {
	Image  *binimg.Image
	Arch   *isa.Arch
	Funcs  []*Function
	byAddr map[uint64]*Function
}

// FuncAt returns the function starting at the given address.
func (d *Disassembly) FuncAt(addr uint64) (*Function, bool) {
	f, ok := d.byAddr[addr]
	return f, ok
}

// Lookup returns the function with the given symbol name (only meaningful
// for unstripped images).
func (d *Disassembly) Lookup(name string) (*Function, bool) {
	for _, f := range d.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// Disassemble decodes every function in the image and builds CFGs. If the
// image retains symbols they define the boundaries; otherwise the prologue
// heuristic recovers them.
func Disassemble(im *binimg.Image) (*Disassembly, error) {
	arch, err := isa.ByName(im.Arch)
	if err != nil {
		return nil, err
	}
	d := &Disassembly{Image: im, Arch: arch, byAddr: make(map[uint64]*Function)}
	var bounds []boundary
	if len(im.Symbols) > 0 {
		for _, s := range im.Symbols {
			bounds = append(bounds, boundary{name: s.Name, start: int(s.Addr - binimg.TextBase), end: int(s.Addr - binimg.TextBase + s.Size)})
		}
	} else {
		bounds = findBoundaries(arch, im.Text)
	}
	for _, b := range bounds {
		fn, err := decodeFunction(arch, im.Text, b)
		if err != nil {
			return nil, fmt.Errorf("disasm: function at %#x: %w", binimg.TextBase+uint64(b.start), err)
		}
		buildCFG(fn)
		d.Funcs = append(d.Funcs, fn)
		d.byAddr[fn.Addr] = fn
	}
	return d, nil
}

type boundary struct {
	name       string
	start, end int
}

// findBoundaries scans for prologue byte patterns and validates candidates
// by decoding. Invalid candidates (prologue look-alikes inside immediates)
// are merged into the preceding function.
//
// Validation is incremental: each candidate's instruction stream is decoded
// at most once no matter how many merge steps extend its end, keeping
// recovery linear in the text size. Re-decoding the span per merge step is
// quadratic on prologue-dense inputs, which adversarial (fuzzed) images hit
// reliably even if compiled code never does.
func findBoundaries(arch *isa.Arch, text []byte) []boundary {
	pattern := arch.PrologueBytes()
	var starts []int
	for off := 0; off+len(pattern) <= len(text); {
		if bytes.Equal(text[off:off+len(pattern)], pattern) {
			starts = append(starts, off)
			off += len(pattern)
			continue
		}
		off++
	}
	// nonzero[i] counts nonzero bytes in text[:i], so padding runs can be
	// checked in O(1) during candidate merging.
	nonzero := make([]int, len(text)+1)
	for i, b := range text {
		nonzero[i+1] = nonzero[i]
		if b != 0 {
			nonzero[i+1]++
		}
	}
	var out []boundary
	i := 0
	for i < len(starts) {
		start := starts[i]
		sp := spanDecoder{arch: arch, body: text[start:], nonzero: nonzero[start:], zeroAt: -1}
		j := i + 1
		for {
			end := len(text)
			if j < len(starts) {
				end = starts[j]
			}
			if bodyEnd, ok := sp.validTo(end - start); ok {
				out = append(out, boundary{start: start, end: start + bodyEnd})
				break
			}
			if j >= len(starts) {
				// Even the final stretch fails; skip this candidate.
				break
			}
			j++ // merge: the next "prologue" was data
		}
		i = j
	}
	return out
}

// spanDecoder incrementally validates candidate function spans. Opcode
// bytes are never zero, so a zero byte at an instruction boundary marks the
// start of inter-function padding; a span is well formed when it is a
// nonempty instruction stream followed only by padding. Because instruction
// lengths are fully determined by their leading bytes (truncation is always
// a decode error, never a shorter instruction), greedily decoding the
// unbounded text visits exactly the boundaries a decode bounded to any span
// end would, so successive validTo queries can share one decode pass.
type spanDecoder struct {
	arch    *isa.Arch
	body    []byte
	nonzero []int // nonzero[i] = nonzero bytes in body[:i]
	pos     int   // next undecoded instruction boundary
	zeroAt  int   // boundary where padding stopped the decode, -1 if none
	failed  bool  // body[pos:] does not decode
}

// validTo reports whether body[:end] is a well-formed span and returns the
// byte length of its instruction stream. end must not decrease across calls.
func (s *spanDecoder) validTo(end int) (int, bool) {
	for !s.failed && s.zeroAt < 0 && s.pos < end {
		if s.body[s.pos] == 0 {
			s.zeroAt = s.pos
			break
		}
		_, n, err := s.arch.Decode(s.body[s.pos:])
		if err != nil {
			s.failed = true
			break
		}
		s.pos += n
	}
	switch {
	case s.zeroAt >= 0:
		// Padding from zeroAt on: the remainder up to end must stay zero,
		// and the instruction stream must be nonempty.
		return s.zeroAt, s.zeroAt > 0 && s.nonzero[end] == s.nonzero[s.zeroAt]
	case s.failed:
		// The undecodable byte sits before end, and a decode bounded to end
		// fails on it the same way (shorter slices only truncate harder).
		return 0, false
	case s.pos == end:
		return end, end > 0
	default:
		// end falls strictly inside an instruction: a bounded decode would
		// see it truncated.
		return 0, false
	}
}

func decodeFunction(arch *isa.Arch, text []byte, b boundary) (*Function, error) {
	if b.start < 0 || b.end > len(text) || b.start >= b.end {
		return nil, fmt.Errorf("bad boundary [%d,%d) in %d bytes of text", b.start, b.end, len(text))
	}
	body := text[b.start:b.end]
	end := len(body)
	fn := &Function{
		Name:     b.name,
		Addr:     binimg.TextBase + uint64(b.start),
		Size:     uint64(end),
		offToIdx: make(map[int]int),
	}
	pos := 0
	for pos < end {
		in, n, err := arch.Decode(body[pos:])
		if err != nil {
			return nil, err
		}
		fn.offToIdx[pos] = len(fn.Instrs)
		fn.Instrs = append(fn.Instrs, DInstr{Instr: in, Offset: pos, Size: n})
		pos += n
	}
	return fn, nil
}

// buildCFG splits the instruction stream into basic blocks and wires
// successor edges.
func buildCFG(fn *Function) {
	n := len(fn.Instrs)
	if n == 0 {
		return
	}
	leader := make([]bool, n)
	leader[0] = true
	for i, in := range fn.Instrs {
		if in.Op.IsBranch() {
			if t, ok := fn.IndexAtOffset(int(in.Imm)); ok {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.Op == isa.Ret && i+1 < n {
			leader[i+1] = true
		}
	}
	// Carve blocks.
	startIdx := make(map[int]int) // leader instruction index -> block index
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		b := Block{Index: len(fn.Blocks), First: i, Last: j - 1}
		startIdx[i] = b.Index
		fn.Blocks = append(fn.Blocks, b)
		i = j
	}
	// Wire successors and classify.
	for bi := range fn.Blocks {
		b := &fn.Blocks[bi]
		last := fn.Instrs[b.Last]
		switch {
		case last.Op == isa.Ret:
			b.Kind = BlockRet
		case last.Op == isa.Jmp:
			b.Kind = BlockNormal
			if t, ok := fn.IndexAtOffset(int(last.Imm)); ok {
				b.Succs = append(b.Succs, startIdx[t])
			}
		case last.Op.IsCondBranch():
			b.Kind = BlockNormal
			if t, ok := fn.IndexAtOffset(int(last.Imm)); ok {
				b.Succs = append(b.Succs, startIdx[t])
			}
			if b.Last+1 < n {
				b.Succs = append(b.Succs, startIdx[b.Last+1])
			} else {
				b.Kind = BlockError
			}
		default:
			if b.Last+1 < n {
				b.Kind = BlockNormal
				b.Succs = append(b.Succs, startIdx[b.Last+1])
			} else {
				// Execution runs off the end of the function.
				b.Kind = BlockError
			}
		}
	}
}

// NumEdges counts CFG edges.
func (f *Function) NumEdges() int {
	n := 0
	for i := range f.Blocks {
		n += len(f.Blocks[i].Succs)
	}
	return n
}

// CalleeAddrs returns the distinct intra-binary call targets.
func (f *Function) CalleeAddrs() []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, in := range f.Instrs {
		if in.Op == isa.Call && !seen[uint64(in.Imm)] {
			seen[uint64(in.Imm)] = true
			out = append(out, uint64(in.Imm))
		}
	}
	return out
}

// ImportIdxs returns the distinct import-table slots the function calls.
func (f *Function) ImportIdxs() []int {
	seen := make(map[int]bool)
	var out []int
	for _, in := range f.Instrs {
		if in.Op == isa.CallI && !seen[int(in.Imm)] {
			seen[int(in.Imm)] = true
			out = append(out, int(in.Imm))
		}
	}
	return out
}
