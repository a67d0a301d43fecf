package sealed

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"decloud/internal/bidding"
	"decloud/internal/resource"
)

// detRand is a deterministic entropy source for tests.
type detRand struct{ state [32]byte }

func newDetRand(seed string) *detRand {
	d := &detRand{}
	d.state = sha256.Sum256([]byte(seed))
	return d
}

func (d *detRand) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		d.state = sha256.Sum256(d.state[:])
		c := copy(p[n:], d.state[:])
		n += c
	}
	return n, nil
}

var _ io.Reader = (*detRand)(nil)

func testIdentity(t *testing.T, seed string) *Identity {
	t.Helper()
	id, err := NewIdentityFrom(newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestIdentityFingerprint(t *testing.T) {
	a := testIdentity(t, "alice")
	b := testIdentity(t, "bob")
	if a.ParticipantID() == b.ParticipantID() {
		t.Fatal("distinct identities share a fingerprint")
	}
	if len(a.ParticipantID()) != 32 { // 16 bytes hex
		t.Fatalf("fingerprint length = %d", len(a.ParticipantID()))
	}
	if a.ParticipantID() != FingerprintOf(a.Public()) {
		t.Fatal("FingerprintOf mismatch")
	}
}

func TestSignVerify(t *testing.T) {
	id := testIdentity(t, "signer")
	msg := []byte("hello decloud")
	sig := id.Sign(msg)
	verify := func(pub, msg []byte) bool {
		return (&Bid{Sender: pub, Envelope: msg, Signature: sig}).VerifySignature()
	}
	if !verify(id.Public(), msg) {
		t.Fatal("valid signature rejected")
	}
	if verify(id.Public(), []byte("tampered")) {
		t.Fatal("tampered message accepted")
	}
	if verify(nil, msg) {
		t.Fatal("nil key accepted")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	key, err := NewTempKeyFrom(newDetRand("key"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("sealed order bytes")
	env, err := Seal(payload, key, newDetRand("nonce"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	k1, _ := NewTempKeyFrom(newDetRand("k1"))
	k2, _ := NewTempKeyFrom(newDetRand("k2"))
	env, err := Seal([]byte("secret"), k1, newDetRand("n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Open(k2); !errors.Is(err, ErrOpenFailed) {
		t.Fatalf("wrong key: %v", err)
	}
}

func TestSealRejectsBadKey(t *testing.T) {
	if _, err := Seal([]byte("x"), []byte("short"), newDetRand("n")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("short key accepted: %v", err)
	}
	var env Envelope = []byte("tiny")
	if _, err := env.Open(make([]byte, KeySize)); !errors.Is(err, ErrShortData) {
		t.Fatalf("short envelope: %v", err)
	}
}

func TestEnvelopeTamperDetected(t *testing.T) {
	key, _ := NewTempKeyFrom(newDetRand("k"))
	env, err := Seal([]byte("payload"), key, newDetRand("n"))
	if err != nil {
		t.Fatal(err)
	}
	env[len(env)-1] ^= 0xff
	if _, err := env.Open(key); !errors.Is(err, ErrOpenFailed) {
		t.Fatalf("tampered envelope accepted: %v", err)
	}
}

func testOrderBytes(t *testing.T, owner bidding.ParticipantID) []byte {
	t.Helper()
	r := &bidding.Request{
		ID: "r1", Client: owner,
		Resources: resource.Vector{resource.CPU: 2},
		Start:     0, End: 100, Duration: 50, Bid: 3,
	}
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSealBidAndVerify(t *testing.T) {
	id := testIdentity(t, "alice")
	key, _ := NewTempKeyFrom(newDetRand("k"))
	orderBytes := testOrderBytes(t, id.ParticipantID())
	bid, err := SealBid(id, orderBytes, key, newDetRand("n"))
	if err != nil {
		t.Fatal(err)
	}
	if !bid.VerifySignature() {
		t.Fatal("valid bid signature rejected")
	}
	if bid.SenderID() != id.ParticipantID() {
		t.Fatal("sender fingerprint mismatch")
	}
	// Decrypt and confirm the order survived.
	plain, err := bid.Envelope.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := bidding.DecodeOrder(plain)
	if err != nil || req == nil {
		t.Fatalf("decode: %v", err)
	}
	if req.Client != id.ParticipantID() {
		t.Fatal("owner mismatch after round trip")
	}
	// Tamper with the envelope: signature must break.
	bid.Envelope[0] ^= 1
	if bid.VerifySignature() {
		t.Fatal("tampered bid passes signature check")
	}
}

// TestKeyReveal: a reveal is two fields and is valid iff it names the bid
// and carries the key the bid's envelope commits to. Nobody signs it.
func TestKeyReveal(t *testing.T) {
	if n := reflect.TypeOf(KeyReveal{}).NumField(); n != 2 {
		t.Fatalf("KeyReveal has %d fields, want BidDigest and Key", n)
	}
	alice := testIdentity(t, "alice")
	key, _ := NewTempKeyFrom(newDetRand("k"))
	bid, err := SealBid(alice, testOrderBytes(t, alice.ParticipantID()), key, newDetRand("n"))
	if err != nil {
		t.Fatal(err)
	}
	otherKey, _ := NewTempKeyFrom(newDetRand("k2"))
	other, err := SealBid(alice, testOrderBytes(t, alice.ParticipantID()), otherKey, newDetRand("n2"))
	if err != nil {
		t.Fatal(err)
	}
	reveal := NewKeyReveal(bid, key)
	if err := reveal.Verify(bid); err != nil {
		t.Fatalf("valid reveal rejected: %v", err)
	}
	for name, kr := range map[string]*KeyReveal{
		"another key":                NewKeyReveal(bid, otherKey),
		"another bid's reveal":       NewKeyReveal(other, otherKey),
		"this key, another digest":   {BidDigest: other.Digest(), Key: key},
		"a short key":                {BidDigest: bid.Digest(), Key: key[:KeySize-1]},
		"a long key":                 {BidDigest: bid.Digest(), Key: append(append([]byte(nil), key...), 0)},
		"no key":                     {BidDigest: bid.Digest()},
		"one flipped bit in the key": {BidDigest: bid.Digest(), Key: append([]byte{key[0] ^ 1}, key[1:]...)},
	} {
		if err := kr.Verify(bid); !errors.Is(err, ErrBadReveal) {
			t.Errorf("%s: Verify = %v, want ErrBadReveal", name, err)
		}
	}
}

// TestEnvelopeCommitsToOneKey: GCM alone lets a sender craft one
// ciphertext that authenticates under two keys and pick after the
// preamble. The envelope's first 32 bytes name the one key it may be
// opened with, and Open refuses every other before any cipher runs.
func TestEnvelopeCommitsToOneKey(t *testing.T) {
	k1, _ := NewTempKeyFrom(newDetRand("k1"))
	k2, _ := NewTempKeyFrom(newDetRand("k2"))
	payload := testOrderBytes(t, "owner")
	env1, err := Seal(payload, k1, newDetRand("n"))
	if err != nil {
		t.Fatal(err)
	}
	env2, err := Seal(payload, k2, newDetRand("n"))
	if err != nil {
		t.Fatal(err)
	}
	if !env1.CommitsTo(k1) || env1.CommitsTo(k2) || env1.CommitsTo(k1[:KeySize-1]) || Envelope(nil).CommitsTo(k1) {
		t.Fatal("CommitsTo does not single out the sealing key")
	}
	if bare := sha256.Sum256(k1); bytes.Equal(env1[:commitSize], k1) || bytes.Equal(env1[:commitSize], bare[:]) {
		t.Fatal("the commitment is the key or its bare hash; it must be domain-separated")
	}

	// The equivocator's envelope: a body that authenticates under k2
	// behind a commitment to k1. Without the commitment check Open(k2)
	// would succeed; with it k2 never reaches AES, and k1 — the only key
	// the check lets through — does not authenticate the body.
	crafted := append(append(Envelope(nil), env1[:commitSize]...), env2[commitSize:]...)
	if plain, err := Envelope(env2).Open(k2); err != nil || !bytes.Equal(plain, payload) {
		t.Fatalf("control: the k2 body does not open under k2: %v", err)
	}
	for name, k := range map[string][]byte{"the key the body was sealed under": k2, "the key it commits to": k1} {
		if _, err := crafted.Open(k); !errors.Is(err, ErrOpenFailed) {
			t.Errorf("crafted envelope under %s: %v, want ErrOpenFailed", name, err)
		}
	}

	// One flipped commitment byte: the true key is refused.
	for _, i := range []int{0, commitSize / 2, commitSize - 1} {
		flipped := append(Envelope(nil), env1...)
		flipped[i] ^= 0x80
		if _, err := flipped.Open(k1); !errors.Is(err, ErrOpenFailed) {
			t.Errorf("commitment byte %d flipped: %v, want ErrOpenFailed", i, err)
		}
	}

	// An envelope in the layout before the commitment fails to open and
	// its reveal fails to verify; nothing panics. (miner.DecryptOrders
	// counting such a bid Rejected is pinned in internal/miner.)
	old := env1[commitSize:] // nonce ‖ ciphertext: what Seal returned before it prepended the commitment
	if _, err := old.Open(k1); !errors.Is(err, ErrOpenFailed) {
		t.Errorf("old-layout envelope: %v, want ErrOpenFailed", err)
	}
	empty, err := Seal(nil, k1, newDetRand("n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty[commitSize:].Open(k1); !errors.Is(err, ErrShortData) {
		t.Errorf("old-layout envelope of an empty payload: %v, want ErrShortData", err)
	}
	id := testIdentity(t, "old")
	oldBid := &Bid{Sender: id.Public(), Envelope: old, Signature: id.Sign(old)}
	if err := NewKeyReveal(oldBid, k1).Verify(oldBid); !errors.Is(err, ErrBadReveal) {
		t.Errorf("old-layout bid's reveal: %v, want ErrBadReveal", err)
	}
}

func TestNewIdentityAndKeyFromSystemRand(t *testing.T) {
	if _, err := NewIdentity(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenNeverPanicsOnGarbage: adversarial envelope bytes must fail
// cleanly, never panic.
func TestOpenNeverPanicsOnGarbage(t *testing.T) {
	key := make([]byte, KeySize)
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Open panicked: %v", r)
			}
		}()
		_, _ = Envelope(data).Open(key)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestSealOpenProperty: arbitrary payloads round-trip under arbitrary keys.
func TestSealOpenProperty(t *testing.T) {
	f := func(payload []byte, keySeed string) bool {
		key, err := NewTempKeyFrom(newDetRand("k" + keySeed))
		if err != nil {
			return false
		}
		env, err := Seal(payload, key, newDetRand("n"+keySeed))
		if err != nil {
			return false
		}
		got, err := env.Open(key)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
