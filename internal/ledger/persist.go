package ledger

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Chain persistence: blocks are stored as JSON lines (one block per
// line), replayed through the normal Append validation on load — a
// corrupted or tampered file fails exactly like a bad block from the
// network would.

// ErrCorruptChainFile wraps decode failures on load.
var ErrCorruptChainFile = errors.New("ledger: corrupt chain file")

// Save writes the chain to w as JSON lines: the blocks held when it starts,
// outside the lock (appended blocks are immutable), so no Append waits on w.
func (c *Chain) Save(w io.Writer) error {
	c.mu.RLock()
	blocks := c.blocks
	c.mu.RUnlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, b := range blocks {
		if err := enc.Encode(b); err != nil {
			return fmt.Errorf("ledger: save block %d: %w", b.Preamble.Height, err)
		}
	}
	return bw.Flush()
}

// SaveFile writes the chain to a file (0644), replacing any existing
// content atomically via a temp file in the same directory.
func (c *Chain) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ledger: save: %w", err)
	}
	if err := c.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ledger: save: %w", err)
	}
	return os.Rename(tmp, path)
}

// Load reads a chain from r, re-validating every block (linkage, PoW,
// bids hash, body integrity) plus the caller's semantic verify callback.
func Load(r io.Reader, verify func(*Block) error) (*Chain, error) {
	c := NewChain()
	dec := json.NewDecoder(r)
	for {
		var b Block
		if err := dec.Decode(&b); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptChainFile, err)
		}
		if err := c.Append(&b, verify); err != nil {
			return nil, fmt.Errorf("ledger: load block %d: %w", b.Preamble.Height, err)
		}
	}
	return c, nil
}

// LoadFile reads a chain from a file.
func LoadFile(path string, verify func(*Block) error) (*Chain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: load: %w", err)
	}
	defer f.Close()
	return Load(f, verify)
}
