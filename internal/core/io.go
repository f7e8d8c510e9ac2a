package core

import (
	"errors"
	"fmt"
	"os"

	"noisyeval/internal/core/bankseg"
)

// LoadBank reads a bank file written by SaveBankV4 (or grown in place by
// an earlier build), verifies every segment CRC and every count, and copies
// each arena segment onto the heap as one count block — the fully-checked
// counterpart of OpenBankMapped. Corruption
// surfaces as a *CorruptError naming the failing segment and its offset; a
// file in a retired encoding (bankfmt/v4, v3, gob+gzip) fails with an error
// satisfying IsStaleBankFormat that names the generation and the fix.
func LoadBank(path string) (*Bank, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load bank: %w", err)
	}
	b, err := DecodeBank(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) && ce.Path == "" {
			ce.Path = path
		}
		return nil, err
	}
	return b, nil
}

// DecodeBank reads one bankfmt/v5 image (a bank file's bytes, or the same
// bytes received from a peer) into a validated heap bank: every payload
// CRC checked, and every count at most its client's example count. Every
// error is either a stale-format classification (IsStaleBankFormat — the
// bytes open a retired or future encoding, recognised by their first 8
// bytes and never decoded) or a *CorruptError.
func DecodeBank(data []byte) (*Bank, error) {
	if _, err := sniffBankGeneration(data); err != nil {
		return nil, err
	}
	sf, err := bankseg.Parse(data)
	if err != nil {
		return nil, wrapSegmentErr("", err)
	}
	b, _, err := assembleBankV4(sf)
	return b, err
}
