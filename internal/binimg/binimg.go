// Package binimg defines the binary image container used for compiled
// libraries — the repository's stand-in for the ELF shared objects the paper
// analyzes. An image carries the text section, interned read-only data, an
// import table (the PLT analog) and, unless stripped, a function symbol
// table. PATCHECKO's pipeline operates on stripped images; ground-truth
// symbol tables are retained out-of-band by the corpus for evaluation only,
// mirroring how the paper strips its corpus "for our problem setting" while
// keeping debug builds to establish ground truth.
package binimg

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"sort"

	"repro/internal/faultinject"
)

// TextBase is the virtual address where .text is mapped.
const TextBase = 0x400000

// Magic identifies the image format.
var Magic = [6]byte{'P', 'C', 'K', 'O', '0', '1'}

// ErrBadImage reports a malformed image file.
var ErrBadImage = errors.New("binimg: malformed image")

// Symbol is one function symbol.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
}

// Image is one compiled library binary.
type Image struct {
	Arch     string
	LibName  string
	OptLevel string
	Text     []byte // mapped at TextBase
	Rodata   []byte // mapped at minic.RodataBase
	Imports  []string
	Symbols  []Symbol // sorted by Addr; nil when stripped
	Stripped bool
}

// Strip returns a copy of the image without its symbol table.
func (im *Image) Strip() *Image {
	out := *im
	out.Symbols = nil
	out.Stripped = true
	out.Text = append([]byte(nil), im.Text...)
	out.Rodata = append([]byte(nil), im.Rodata...)
	out.Imports = append([]string(nil), im.Imports...)
	return &out
}

// Lookup returns the symbol with the given name.
func (im *Image) Lookup(name string) (Symbol, bool) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// SymbolAt returns the symbol covering the given address.
func (im *Image) SymbolAt(addr uint64) (Symbol, bool) {
	i := sort.Search(len(im.Symbols), func(i int) bool {
		return im.Symbols[i].Addr > addr
	})
	if i == 0 {
		return Symbol{}, false
	}
	s := im.Symbols[i-1]
	if addr < s.Addr+s.Size {
		return s, true
	}
	return Symbol{}, false
}

// Encode serializes the image.
func Encode(im *Image) []byte {
	var w writer
	w.image(im)
	return w.buf
}

// Digest returns the SHA-256 of the image's encoding, Encode(im). It
// streams the same bytes into the hash instead of building them, so no
// encoded copy of the image is allocated. Two images have equal digests
// exactly when they have equal encodings.
func Digest(im *Image) [sha256.Size]byte {
	w := writer{h: sha256.New()}
	w.image(im)
	var d [sha256.Size]byte
	w.h.Sum(d[:0])
	return d
}

// Decode parses an encoded image, validating the trailing checksum.
func Decode(b []byte) (*Image, error) {
	if len(b) < len(Magic)+4 {
		return nil, fmt.Errorf("%w: too short", ErrBadImage)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadImage)
	}
	r := reader{buf: body}
	var magic [6]byte
	copy(magic[:], r.bytes(6))
	if magic != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	im := &Image{}
	im.Arch = r.str()
	im.LibName = r.str()
	if err := faultinject.Fire(faultinject.DecodeCorrupt, im.LibName); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadImage, err)
	}
	im.OptLevel = r.str()
	im.Stripped = r.u8() != 0
	im.Text = r.blob()
	im.Rodata = r.blob()
	nImp := int(r.u32())
	if r.err == nil && nImp > 1<<20 {
		return nil, fmt.Errorf("%w: absurd import count", ErrBadImage)
	}
	for i := 0; i < nImp && r.err == nil; i++ {
		im.Imports = append(im.Imports, r.str())
	}
	nSym := int(r.u32())
	if r.err == nil && nSym > 1<<20 {
		return nil, fmt.Errorf("%w: absurd symbol count", ErrBadImage)
	}
	for i := 0; i < nSym && r.err == nil; i++ {
		s := Symbol{Name: r.str()}
		s.Addr = r.u64()
		s.Size = r.u64()
		im.Symbols = append(im.Symbols, s)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("%w: trailing garbage", ErrBadImage)
	}
	sort.Slice(im.Symbols, func(i, j int) bool { return im.Symbols[i].Addr < im.Symbols[j].Addr })
	return im, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// writer produces an image's encoding, the one byte stream behind both
// Encode and Digest. Without h it keeps the whole stream in buf. With h it
// forwards the stream to h in chunks of about flushAt bytes, and large
// blobs directly, so buf stays small; crc then covers what h received.
type writer struct {
	buf []byte
	h   hash.Hash
	crc uint32
}

// flushAt is the buffered size at which a hashing writer hands buf to h.
const flushAt = 512

func (w *writer) image(im *Image) {
	w.bytes(Magic[:])
	w.str(im.Arch)
	w.str(im.LibName)
	w.str(im.OptLevel)
	w.u8(boolByte(im.Stripped))
	w.blob(im.Text)
	w.blob(im.Rodata)
	w.u32(uint32(len(im.Imports)))
	for _, s := range im.Imports {
		w.str(s)
	}
	w.u32(uint32(len(im.Symbols)))
	for _, s := range im.Symbols {
		w.str(s.Name)
		w.u64(s.Addr)
		w.u64(s.Size)
	}
	w.checksum()
}

// checksum appends the trailing CRC-32 of everything written so far.
func (w *writer) checksum() {
	if w.h == nil {
		w.u32(crc32.ChecksumIEEE(w.buf))
		return
	}
	w.flush()
	w.u32(w.crc)
	w.flush()
}

// send hands b to the hash and folds it into the running checksum.
func (w *writer) send(b []byte) {
	w.h.Write(b)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
}

func (w *writer) flush() {
	w.send(w.buf)
	w.buf = w.buf[:0]
}

// spill flushes a hashing writer's buffer once it reaches flushAt.
func (w *writer) spill() {
	if w.h != nil && len(w.buf) >= flushAt {
		w.flush()
	}
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v); w.spill() }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v); w.spill() }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v); w.spill() }
func (w *writer) bytes(b []byte) {
	if w.h != nil && len(b) >= flushAt {
		w.flush()
		w.send(b)
		return
	}
	w.buf = append(w.buf, b...)
	w.spill()
}
func (w *writer) blob(b []byte) {
	w.u32(uint32(len(b)))
	w.bytes(b)
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
	w.spill()
}

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated", ErrBadImage)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) blob() []byte {
	n := int(r.u32())
	return append([]byte(nil), r.bytes(n)...)
}

func (r *reader) str() string {
	n := int(r.u32())
	return string(r.bytes(n))
}
