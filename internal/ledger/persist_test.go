package ledger

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"decloud/internal/sealed"
)

func buildChain(t *testing.T, n int) *Chain {
	t.Helper()
	c := NewChain()
	for i := 0; i < n; i++ {
		bid, key := testBid(t, string(rune('a'+i)))
		body := NewBody([]*sealed.KeyReveal{sealed.NewKeyReveal(bid, key)}, []byte(`[]`))
		b := minedBlock(t, c.HeadHash(), int64(i), []*sealed.Bid{bid}, body)
		if err := c.Append(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := buildChain(t, 3)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 3 {
		t.Fatalf("loaded %d blocks", loaded.Len())
	}
	for i := 0; i < 3; i++ {
		if loaded.BlockAt(i).Preamble.Hash() != c.BlockAt(i).Preamble.Hash() {
			t.Fatalf("block %d hash mismatch after round trip", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	c := buildChain(t, 2)
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d blocks", loaded.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestLoadRejectsTamperedBlock(t *testing.T) {
	c := buildChain(t, 2)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored nonce of the second block: PoW breaks.
	text := buf.String()
	tampered := strings.Replace(text, `"nonce":`, `"nonce":9`, 2)
	if tampered == text {
		t.Skip("nonce field not found to tamper")
	}
	if _, err := Load(strings.NewReader(tampered), nil); err == nil {
		t.Fatal("tampered chain file loaded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json at all"), nil); !errors.Is(err, ErrCorruptChainFile) {
		t.Fatalf("garbage load: %v", err)
	}
}

func TestLoadRunsVerifyCallback(t *testing.T) {
	c := buildChain(t, 1)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("semantic check failed")
	if _, err := Load(&buf, func(*Block) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("verify callback skipped: %v", err)
	}
}

func TestLoadEmpty(t *testing.T) {
	c, err := Load(strings.NewReader(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("empty input should give empty chain")
	}
}
