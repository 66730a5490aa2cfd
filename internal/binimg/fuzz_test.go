package binimg

import (
	"crypto/sha256"
	"testing"
)

// FuzzImageDecode hardens the image parser: arbitrary bytes must never
// panic, valid images must round-trip, and an accepted image's digest is
// the hash of its encoding.
func FuzzImageDecode(f *testing.F) {
	f.Add(Encode(sampleImage()))
	f.Add([]byte("PCKO01garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Decode(data)
		if err != nil {
			return
		}
		if Digest(im) != sha256.Sum256(Encode(im)) {
			t.Fatal("Digest differs from sha256(Encode)")
		}
		re, err := Decode(Encode(im))
		if err != nil {
			t.Fatalf("accepted image fails re-decode: %v", err)
		}
		if re.LibName != im.LibName || len(re.Text) != len(im.Text) {
			t.Fatal("re-decode drift")
		}
	})
}
