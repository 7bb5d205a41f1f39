package xauth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// refMAC is Signer.mac as it stood before the Signer kept one keyed HMAC
// and built the MAC input with strconv (a fresh HMAC and fmt.Fprintf per
// call), kept verbatim but for taking the key as an argument.
func refMAC(key []byte, t *Token) []byte {
	m := hmac.New(sha256.New, key)
	fmt.Fprintf(m, "%s|%s|%d|%d|%d|%t", t.Subject, t.Device, t.Priv, t.IssuedAt, t.ExpiresAt, t.MFA)
	return m.Sum(nil)
}

// randName draws from ASCII, the MAC's '|' separator, multi-byte UTF-8
// and invalid UTF-8; length 0 is included.
func randName(rng *rand.Rand) string {
	parts := []string{"a", "Z", "7", "|", "-", " ", "é", "日本", "🔑", "\xff", "\x00"}
	var b bytes.Buffer
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(parts[rng.Intn(len(parts))])
	}
	return b.String()
}

// TestSigMatchesReference pins Issue's Sig, and so every Encode, to the
// reference MAC over random tokens: empty and non-ASCII subjects and
// devices, negative and out-of-range privileges, negative times.
func TestSigMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	key := []byte("reference-signing-key")
	s, err := NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		now := time.Duration(rng.Int63n(1<<40) - 1<<39)
		life := time.Duration(rng.Int63n(1 << 36))
		priv := Privilege(rng.Intn(7) - 2)
		tok := s.Issue(randName(rng), randName(rng), priv, rng.Intn(2) == 0, now, life)
		if want := refMAC(key, &tok); !bytes.Equal(tok.Sig, want) {
			t.Fatalf("token %q/%q priv %d: Sig %x, reference %x", tok.Subject, tok.Device, tok.Priv, tok.Sig, want)
		}
		if err := s.Verify(tok, now, ""); err != nil {
			t.Fatalf("token %q/%q: Verify = %v", tok.Subject, tok.Device, err)
		}
		tok.Sig[rng.Intn(len(tok.Sig))] ^= 1 << rng.Intn(8)
		if err := s.Verify(tok, now, ""); err != ErrBadSignature {
			t.Fatalf("flipped Sig verified: %v", err)
		}
	}
}

// TestSignerConcurrentUse: one Signer shared by goroutines (as
// Authority.Signer hands it out) still issues and verifies correctly.
func TestSignerConcurrentUse(t *testing.T) {
	key := []byte("shared-signing-key")
	s, err := NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4) // one send at most per goroutine
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				now := time.Duration(g*1000+i) * time.Second
				tok := s.Issue(fmt.Sprintf("user-%d", g), "bulb-1", Basic, false, now, time.Hour)
				if !bytes.Equal(tok.Sig, refMAC(key, &tok)) {
					errs <- fmt.Errorf("goroutine %d: Sig differs from reference", g)
					return
				}
				if err := s.Verify(tok, now, "bulb-1"); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
