package binimg

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/faultinject"
)

func sampleImage() *Image {
	return &Image{
		Arch:     "xarm64",
		LibName:  "libstagefright",
		OptLevel: "O2",
		Text:     []byte{1, 2, 3, 4, 5},
		Rodata:   []byte("hello\x00"),
		Imports:  []string{"memmove", "strlen"},
		Symbols: []Symbol{
			{Name: "f", Addr: TextBase, Size: 3},
			{Name: "g", Addr: TextBase + 3, Size: 2},
		},
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	im := sampleImage()
	got, err := Decode(Encode(im))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(im, got) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, im)
	}
}

func TestEncodeDecodeRoundtripQuick(t *testing.T) {
	f := func(text, rodata []byte, lib string, stripped bool) bool {
		im := &Image{
			Arch: "x86", LibName: lib, OptLevel: "O0",
			Text: text, Rodata: rodata, Stripped: stripped,
		}
		if Digest(im) != sha256.Sum256(Encode(im)) {
			return false
		}
		got, err := Decode(Encode(im))
		if err != nil {
			return false
		}
		// nil and empty slices are equivalent on the wire.
		return string(got.Text) == string(text) &&
			string(got.Rodata) == string(rodata) &&
			got.LibName == lib && got.Stripped == stripped
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDigestMatchesEncode pins Digest to the hash of Encode's bytes: on
// the sample image, on one whose text and symbols outgrow the hashing
// writer's buffer, and under every one-field change, each of which must
// move the digest.
func TestDigestMatchesEncode(t *testing.T) {
	large := sampleImage()
	large.Text = bytes.Repeat([]byte{7, 1, 9}, 3*flushAt)
	for i := 0; i < 100; i++ {
		large.Symbols = append(large.Symbols, Symbol{Name: "fn_with_a_longish_name", Addr: uint64(i), Size: 3})
	}
	for _, im := range []*Image{sampleImage(), large, {}} {
		if got, want := Digest(im), sha256.Sum256(Encode(im)); got != want {
			t.Errorf("%q: Digest %x, want sha256(Encode) %x", im.LibName, got, want)
		}
	}

	base := Digest(sampleImage())
	edits := map[string]func(*Image){
		"Arch":     func(im *Image) { im.Arch = "x86" },
		"LibName":  func(im *Image) { im.LibName = "libother" },
		"OptLevel": func(im *Image) { im.OptLevel = "O0" },
		"Stripped": func(im *Image) { im.Stripped = !im.Stripped },
		"Text":     func(im *Image) { im.Text[2] ^= 1 },
		"Rodata":   func(im *Image) { im.Rodata[0] = 'j' },
		"Imports":  func(im *Image) { im.Imports[1] = "strcpy" },
		"Symbols":  func(im *Image) { im.Symbols[1].Size++ },
	}
	for field, edit := range edits {
		im := sampleImage()
		edit(im)
		if Digest(im) == base {
			t.Errorf("changing %s left the digest unchanged", field)
		}
		if got, want := Digest(im), sha256.Sum256(Encode(im)); got != want {
			t.Errorf("after changing %s: Digest %x, want sha256(Encode) %x", field, got, want)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := Encode(sampleImage())
	for _, i := range []int{0, 7, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		if _, err := Decode(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
	if _, err := Decode(enc[:4]); err == nil {
		t.Error("short input not rejected")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("nil input not rejected")
	}
}

func TestDecodeFaultInjection(t *testing.T) {
	// The decode-corruption fault point simulates bit rot on a structurally
	// valid image (the checksum passes; the payload lies). It keys on the
	// library name so chaos tests can break one library's images only.
	enc := Encode(sampleImage())
	injected := errors.New("injected bit rot")
	disarm := faultinject.Arm(faultinject.DecodeCorrupt, "libstagefright", injected)
	defer disarm()
	_, err := Decode(enc)
	if !errors.Is(err, ErrBadImage) || !errors.Is(err, injected) {
		t.Fatalf("injected decode fault = %v, want ErrBadImage wrapping the injected error", err)
	}
	// Other libraries decode fine while the fault is armed.
	other := sampleImage()
	other.LibName = "libother"
	if _, err := Decode(Encode(other)); err != nil {
		t.Errorf("unrelated library affected by armed fault: %v", err)
	}
	disarm()
	if _, err := Decode(enc); err != nil {
		t.Errorf("decode still failing after disarm: %v", err)
	}
}

func TestStrip(t *testing.T) {
	im := sampleImage()
	st := im.Strip()
	if !st.Stripped || st.Symbols != nil {
		t.Error("Strip did not remove symbols")
	}
	if len(im.Symbols) != 2 {
		t.Error("Strip mutated the original")
	}
	st.Text[0] = 99
	if im.Text[0] == 99 {
		t.Error("Strip shares text with original")
	}
}

func TestSymbolLookup(t *testing.T) {
	im := sampleImage()
	if s, ok := im.Lookup("g"); !ok || s.Addr != TextBase+3 {
		t.Errorf("Lookup(g) = %+v, %v", s, ok)
	}
	if _, ok := im.Lookup("missing"); ok {
		t.Error("Lookup(missing) should fail")
	}
	if s, ok := im.SymbolAt(TextBase + 1); !ok || s.Name != "f" {
		t.Errorf("SymbolAt(mid-f) = %+v, %v", s, ok)
	}
	if s, ok := im.SymbolAt(TextBase + 4); !ok || s.Name != "g" {
		t.Errorf("SymbolAt(mid-g) = %+v, %v", s, ok)
	}
	if _, ok := im.SymbolAt(TextBase + 100); ok {
		t.Error("SymbolAt past end should fail")
	}
	if _, ok := im.SymbolAt(TextBase - 1); ok {
		t.Error("SymbolAt before start should fail")
	}
}
