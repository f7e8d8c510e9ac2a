package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"noisyeval/internal/core/bankseg"
	"noisyeval/internal/hpo"
)

// runKeyVersion is bumped whenever the run-result encoding or the meaning of
// any hashed field changes, invalidating previously deduplicated runs.
// v2: the bank's in-memory shape moved to the dense ErrMatrix arena, which
// changes BankFingerprint's gob image for identical recorded content.
// v3: ErrMatrix gained a backing-store abstraction and now gob-encodes
// through its canonical arena (GobEncode), so a mapped bank fingerprints
// identically to its heap twin — at the cost of a new gob image.
// v4: BankFingerprint hashes explicit little-endian bytes (the bankfmt
// metadata encoding, then the uint32 count arena) instead of a gob stream,
// whose process-global type IDs gave one bank different fingerprints in
// different processes.
const runKeyVersion = "runkey-v4"

// RunKey returns the content address of one tuning run: a hex SHA-256 over
// the bank's content address plus everything else that determines the run's
// result (method, noise setting, normalized tuning settings, trial count,
// seed). Tuning from a bank is deterministic in exactly these inputs —
// RunTrials derives every stochastic choice from the seed and the oracle is
// read-only — so equal keys mean identical results, the same discipline
// BankKey applies to banks. noisyevald deduplicates identical POST /v1/runs
// submissions on this key.
func RunKey(bankKey, method string, noise Noise, settings hpo.Settings, trials int, seed uint64) string {
	settings = settings.Normalize()
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", runKeyVersion)
	fmt.Fprintf(h, "bank %s\n", bankKey)
	fmt.Fprintf(h, "method %s\n", method)
	fmt.Fprintf(h, "noise %#v\n", noise)
	fmt.Fprintf(h, "settings %#v\n", settings)
	fmt.Fprintf(h, "trials %d\n", trials)
	fmt.Fprintf(h, "seed %d\n", seed)
	return hex.EncodeToString(h.Sum(nil))
}

// BankFingerprint hashes a bank's content — every field SaveBankV4 persists
// (the unexported lookup index is derived state) — as explicit
// little-endian bytes: the commit segment's metadata encoding, the tensor
// dimensions, then the counts in canonical order (the arena SaveBankV4
// writes). It gives external artifacts loaded via LoadBank a
// content address even though their build inputs are unknown, so runs
// against an installed bank key on what the bank actually records rather
// than on what the suite would have built. A bank fingerprints the same
// wherever its counts live, in every process.
func BankFingerprint(b *Bank) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nbank-content\n", runKeyVersion)
	m := &b.Errs
	buf := appendBankMeta(nil, b)
	for _, d := range [...]int{m.Parts, m.Configs, m.Checkpoints, m.Clients} {
		buf = appendU64(buf, uint64(d))
	}
	h.Write(buf)
	for run := m.counts; len(run) > 0; {
		n := min(len(run), 4096)
		buf = bankseg.AppendUint32s(buf[:0], run[:n])
		h.Write(buf)
		run = run[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}
