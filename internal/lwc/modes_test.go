package lwc

import (
	"bytes"
	"crypto/cipher"
	"math/rand"
	"slices"
	"testing"
)

// The Table III ciphers implement crypto/cipher.Block, so the standard
// library modes compose with them — the property XLF's device layer relies
// on to swap the cipher under a fixed CTR/CBC envelope.

func TestStdlibCTRComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reg := NewRegistry()
	for _, name := range []string{"PRESENT", "LEA", "HIGHT", "TEA", "SEED", "Pride"} {
		info, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		key := make([]byte, info.DefaultKeyBits()/8)
		rng.Read(key)
		blk, err := info.New(key)
		if err != nil {
			t.Fatal(err)
		}
		iv := make([]byte, blk.BlockSize())
		rng.Read(iv)
		pt := make([]byte, 123) // deliberately not block-aligned
		rng.Read(pt)

		ct := make([]byte, len(pt))
		cipher.NewCTR(blk, iv).XORKeyStream(ct, pt)
		if bytes.Equal(ct, pt) {
			t.Errorf("%s/CTR produced identity", name)
		}
		back := make([]byte, len(ct))
		cipher.NewCTR(blk, iv).XORKeyStream(back, ct)
		if !bytes.Equal(back, pt) {
			t.Errorf("%s/CTR roundtrip failed", name)
		}
	}
}

func TestStdlibCBCComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	reg := NewRegistry()
	for _, name := range []string{"PRESENT", "LEA", "XTEA", "Iceberg", "TWINE"} {
		info, _ := reg.Lookup(name)
		key := make([]byte, info.DefaultKeyBits()/8)
		rng.Read(key)
		blk, err := info.New(key)
		if err != nil {
			t.Fatal(err)
		}
		bs := blk.BlockSize()
		iv := make([]byte, bs)
		rng.Read(iv)
		pt := make([]byte, 8*bs)
		rng.Read(pt)

		ct := make([]byte, len(pt))
		cipher.NewCBCEncrypter(blk, iv).CryptBlocks(ct, pt)
		back := make([]byte, len(ct))
		cipher.NewCBCDecrypter(blk, iv).CryptBlocks(back, ct)
		if !bytes.Equal(back, pt) {
			t.Errorf("%s/CBC roundtrip failed", name)
		}
		// CBC chains: equal plaintext blocks yield distinct ciphertext
		// blocks.
		same := make([]byte, 4*bs) // zero blocks
		ct2 := make([]byte, len(same))
		cipher.NewCBCEncrypter(blk, iv).CryptBlocks(ct2, same)
		if bytes.Equal(ct2[:bs], ct2[bs:2*bs]) {
			t.Errorf("%s/CBC repeated identical blocks", name)
		}
	}
}

// TestRegistryInfoConsistency cross-checks metadata against behaviour.
func TestRegistryInfoConsistency(t *testing.T) {
	reg := NewRegistry()
	for _, info := range reg.All() {
		key := make([]byte, info.DefaultKeyBits()/8)
		blk, err := info.New(key)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if got := blk.BlockSize() * 8; got != info.BlockSize {
			t.Errorf("%s block = %d bits, registry %d", info.Name, got, info.BlockSize)
		}
		if !slices.Contains(info.KeySizes, info.DefaultKeyBits()) {
			t.Errorf("%s default key size unsupported", info.Name)
		}
		if slices.Contains(info.KeySizes, 7) {
			t.Errorf("%s claims 7-bit keys", info.Name)
		}
		if info.RoundsFor == nil {
			t.Errorf("%s has no rounds function", info.Name)
			continue
		}
		if r := info.RoundsFor(info.DefaultKeyBits()); r <= 0 {
			t.Errorf("%s rounds = %d", info.Name, r)
		}
	}
	// Spot-check the key-dependent round counts of Table III.
	aes, _ := reg.Lookup("AES")
	for kb, want := range map[int]int{128: 10, 192: 12, 256: 14} {
		if got := aes.RoundsFor(kb); got != want {
			t.Errorf("AES-%d rounds = %d, want %d", kb, got, want)
		}
	}
	lea, _ := reg.Lookup("LEA")
	for kb, want := range map[int]int{128: 24, 192: 28, 256: 32} {
		if got := lea.RoundsFor(kb); got != want {
			t.Errorf("LEA-%d rounds = %d, want %d", kb, got, want)
		}
	}
}

func TestRegistryAddAndLookup(t *testing.T) {
	r := &Registry{}
	if err := r.Add(Info{}); err == nil {
		t.Error("empty Info accepted")
	}
	// A zero-value registry is usable after first Add fails? Add requires
	// initialised map; NewRegistry is the supported constructor.
	reg := NewRegistry()
	if err := reg.Add(Info{Name: "AES", KeySizes: []int{128}, BlockSize: 128, New: newAES}); err == nil {
		t.Error("duplicate Add accepted")
	}
	if err := reg.Add(Info{Name: "X", KeySizes: nil, BlockSize: 64, New: newAES}); err == nil {
		t.Error("no key sizes accepted")
	}
	if err := reg.Add(Info{Name: "X", KeySizes: []int{64}, BlockSize: 0, New: newAES}); err == nil {
		t.Error("zero block accepted")
	}
	if err := reg.Add(Info{Name: "X", KeySizes: []int{64}, BlockSize: 64, New: nil}); err == nil {
		t.Error("nil constructor accepted")
	}
	all := reg.All()
	if len(all) != 16 || all[0].Name != "AES" {
		t.Errorf("%d algorithms, first %q; want 16 from AES", len(all), all[0].Name)
	}
	if _, ok := reg.Lookup("Nonexistent"); ok {
		t.Error("phantom lookup")
	}
	tea, _ := reg.Lookup("TEA")
	if _, err := tea.New(make([]byte, 16)); err != nil {
		t.Errorf("registry TEA constructor: %v", err)
	}
	costs := reg.ByCost()
	for i := 1; i < len(costs); i++ {
		if costs[i-1].CyclesPerByte > costs[i].CyclesPerByte {
			t.Fatal("ByCost not sorted")
		}
	}
}
