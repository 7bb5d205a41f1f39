package channel

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"xlf/internal/device"
	"xlf/internal/lwc"
)

func TestNegotiatePrefersStrongAffordable(t *testing.T) {
	reg := lwc.NewRegistry()

	// Bulb-class: 8 KB RAM. Expect a 128-bit+ lightweight cipher, never
	// DES-class.
	bulb, err := device.ProfileByName("Philips Hue Lightbulb")
	if err != nil {
		t.Fatal(err)
	}
	info, err := Negotiate(bulb, reg)
	if err != nil {
		t.Fatal(err)
	}
	if info.DefaultKeyBits() < 128 {
		t.Errorf("bulb negotiated %s (%d-bit)", info.Name, info.DefaultKeyBits())
	}

	// Tiny RFID tag: nothing fits.
	tag, err := device.ProfileByName("HID Glass Tag Ultra (RFID)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Negotiate(tag, reg); !errors.Is(err, ErrNoCipher) {
		t.Errorf("tag negotiation err = %v, want ErrNoCipher", err)
	}

	// Phone-class: should land on the strongest key size available.
	phone, err := device.ProfileByName("iPhone 6s Plus")
	if err != nil {
		t.Fatal(err)
	}
	pInfo, err := Negotiate(phone, reg)
	if err != nil {
		t.Fatal(err)
	}
	if pInfo.DefaultKeyBits() < 128 {
		t.Errorf("phone negotiated %s", pInfo.Name)
	}
}

func TestNegotiateNeverPicksDES(t *testing.T) {
	reg := lwc.NewRegistry()
	for _, p := range device.Table1() {
		info, err := Negotiate(p, reg)
		if err != nil {
			continue
		}
		if info.Name == "DES" || info.Name == "DESL" {
			t.Errorf("%s negotiated broken cipher %s", p.Name, info.Name)
		}
	}
}

func pair(t *testing.T) (*Session, *Session) {
	t.Helper()
	reg := lwc.NewRegistry()
	info, _ := reg.Lookup("PRESENT")
	key := bytes.Repeat([]byte{7}, 10)
	a, err := New(info, key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(info, key)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSealOpenRoundTrip(t *testing.T) {
	a, b := pair(t)
	for _, msg := range []string{"", "x", "temperature=71.5", "a much longer telemetry payload spanning several blocks of the cipher"} {
		sealed, err := a.Seal(nil, []byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Open(sealed)
		if err != nil {
			t.Fatalf("Open(%q): %v", msg, err)
		}
		if string(got) != msg {
			t.Errorf("roundtrip = %q, want %q", got, msg)
		}
	}
}

func TestConfidentialityAndFreshness(t *testing.T) {
	a, _ := pair(t)
	s1, _ := a.Seal(nil, []byte("secret telemetry"))
	s2, _ := a.Seal(nil, []byte("secret telemetry"))
	if bytes.Contains(s1, []byte("secret")) {
		t.Error("plaintext leaked")
	}
	if bytes.Equal(s1[8:], s2[8:]) {
		t.Error("identical ciphertexts for repeated plaintext (nonce reuse)")
	}
}

func TestTamperAndReplayRejected(t *testing.T) {
	a, b := pair(t)
	sealed, _ := a.Seal(nil, []byte("unlock door"))
	// Bit flips anywhere are rejected.
	for i := range sealed {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 1
		if _, err := b.Open(mut); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	// First delivery fine, replay rejected.
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(sealed); !errors.Is(err, ErrReplay) {
		t.Errorf("replay err = %v, want ErrReplay", err)
	}
	// Short garbage.
	if _, err := b.Open([]byte{1, 2, 3}); !errors.Is(err, ErrTooShort) {
		t.Errorf("short err = %v", err)
	}
}

func TestReorderRejected(t *testing.T) {
	a, b := pair(t)
	s1, _ := a.Seal(nil, []byte("one"))
	s2, _ := a.Seal(nil, []byte("two"))
	if _, err := b.Open(s2); err != nil {
		t.Fatal(err)
	}
	// The earlier nonce is now stale: strict monotonicity.
	if _, err := b.Open(s1); !errors.Is(err, ErrReplay) {
		t.Errorf("stale nonce err = %v, want ErrReplay", err)
	}
}

func TestForDeviceMetersBattery(t *testing.T) {
	reg := lwc.NewRegistry()
	bulb := device.NewSmartBulb("b")
	s, err := ForDevice(bulb, reg, []byte("provisioning-key"))
	if err != nil {
		t.Fatal(err)
	}
	before := bulb.BatteryUJ
	if _, err := s.Seal(nil, bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	if bulb.BatteryUJ >= before {
		t.Error("sealing did not drain the battery")
	}
	// AC-powered camera sessions are unmetered but still work.
	cam := device.NewNetworkCamera("c")
	cs, err := ForDevice(cam, reg, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Seal(nil, bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := ForDevice(bulb, reg, nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestBatteryExhaustion(t *testing.T) {
	reg := lwc.NewRegistry()
	bulb := device.NewSmartBulb("b")
	bulb.BatteryUJ = 0.001 // nearly dead
	s, err := ForDevice(bulb, reg, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seal(nil, bytes.Repeat([]byte{1}, 1<<16)); !errors.Is(err, ErrOutOfEnergy) {
		t.Errorf("err = %v, want ErrOutOfEnergy", err)
	}
}

func TestDeviceGatewayInterop(t *testing.T) {
	// The gateway derives the same session from the same provisioning
	// key by negotiating against the device's profile.
	reg := lwc.NewRegistry()
	bulb := device.NewSmartBulb("b")
	devSide, err := ForDevice(bulb, reg, []byte("pairing-code-1234"))
	if err != nil {
		t.Fatal(err)
	}
	// Gateway side: same negotiation, unmetered.
	info, err := Negotiate(bulb.Profile, reg)
	if err != nil {
		t.Fatal(err)
	}
	gwBulb := device.NewSmartBulb("shadow") // profile twin for key derivation
	gwSide, err := ForDevice(gwBulb, reg, []byte("pairing-code-1234"))
	if err != nil {
		t.Fatal(err)
	}
	if devSide.Algorithm != info.Name || gwSide.Algorithm != info.Name {
		t.Fatalf("algorithms diverge: %s vs %s", devSide.Algorithm, gwSide.Algorithm)
	}
	sealed, err := devSide.Seal(nil, []byte("event:on"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := gwSide.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "event:on" {
		t.Errorf("interop roundtrip = %q", got)
	}
}

func TestSealOpenProperty(t *testing.T) {
	a, b := pair(t)
	f := func(msg []byte) bool {
		sealed, err := a.Seal(nil, msg)
		if err != nil {
			return false
		}
		got, err := b.Open(sealed)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSealRefusesKeystreamOverlap: message n's keystream starts at
// counter n<<20, so a message over 2^20 blocks would run into message
// n+1's keystream. Seal and Open refuse it with ErrTooLong; exactly 2^20
// blocks still round-trips.
func TestSealRefusesKeystreamOverlap(t *testing.T) {
	info, _ := lwc.NewRegistry().Lookup("AES")
	key := bytes.Repeat([]byte{3}, 16)
	a, err := New(info, key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(info, key)
	if err != nil {
		t.Fatal(err)
	}
	const bs, blocks = 16, 1 << 20
	long := make([]byte, (blocks+1)*bs)
	first, err := a.Seal(nil, long)
	if err == nil {
		// All-zero plaintext: the ciphertext is the keystream itself.
		next, err := a.Seal(nil, make([]byte, bs))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(first[8+blocks*bs:8+(blocks+1)*bs], next[8:8+bs]) {
			t.Fatal("Seal accepted 2^20+1 blocks: its last block reuses the next message's first keystream block")
		}
		t.Fatal("Seal accepted 2^20+1 blocks")
	}
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("Seal(2^20+1 blocks) = %v, want ErrTooLong", err)
	}
	forged := make([]byte, 8+len(long)+8)
	forged[7] = 1
	if _, err := b.Open(forged); !errors.Is(err, ErrTooLong) {
		t.Fatalf("Open(2^20+1 blocks) = %v, want ErrTooLong", err)
	}
	sealed, err := a.Seal(nil, long[:blocks*bs])
	if err != nil {
		t.Fatalf("Seal(2^20 blocks): %v", err)
	}
	got, err := b.Open(sealed)
	if err != nil || len(got) != blocks*bs {
		t.Fatalf("Open(2^20 blocks) = %d bytes, %v", len(got), err)
	}
}

// TestSealRefusesOverlap: the message is written ahead of the plaintext
// it encrypts, so Seal panics when the bytes it appends would overlap
// plaintext — the AEAD in-place idiom plaintext[:0] included — and seals
// normally when they only share a backing array.
func TestSealRefusesOverlap(t *testing.T) {
	a, b := pair(t)
	mem := make([]byte, 128)
	pt := mem[64:80]
	for _, dst := range [][]byte{pt[:0], mem[:60], mem[40:40]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Seal into dst at %p len %d cap %d over plaintext did not panic", dst[:cap(dst)], len(dst), cap(dst))
				}
			}()
			_, _ = a.Seal(dst, pt)
		}()
	}
	copy(pt, "sixteen byte msg")
	sealed, err := a.Seal(mem[:0:64], pt) // 8+16+8 bytes end before pt
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.Open(sealed); err != nil || string(got) != "sixteen byte msg" {
		t.Fatalf("Open = %q, %v", got, err)
	}
}
