package xauth

// Token is the fixture's SSO token.
type Token struct {
	Subject string
	Sig     []byte
}

// Signer issues tokens; Issue is the secretleak source.
type Signer struct{ key []byte }

// Issue mints a signed token.
func (s *Signer) Issue(subject string) Token {
	return Token{Subject: subject, Sig: s.key}
}

// Encode serialises a token for transport (still secret material).
func Encode(t Token) string { return t.Subject + "!" + string(t.Sig) }

// Redact is the sanctioned display form — the secretleak sanitizer.
func Redact(t Token) string { return "token(" + t.Subject + ")" }
