package core

// bankfmt/v5: the one encoding a bank or a bank shard ever takes — store
// entries, cmd/bank artifacts, peer transfers and dist shard uploads alike.
// A bank is a container of CRC-framed, 64-byte-aligned segments
// (internal/core/bankseg):
//
//	file header (64 B, magic "NEBANK", version 5)
//	arena segment    configs [lo,hi): raw little-endian uint32 wrong-counts
//	                 laid out [partition][config-lo][checkpoint][client]
//	                 (BankShard order — for the full range this IS the
//	                 canonical arena)
//	commit segment   segment directory + bank metadata (bankfmt.go),
//	                 including the per-(partition, client) example counts
//	                 every reader divides a count by
//
// v5 is v4 with the arena element narrowed from the float64 rate to the
// uint32 count it was the quotient of: same framing, half the arena bytes.
// The functions keep the V4 names of the segmented container they write.
//
// The commit segment is written last and names, by sequence number, exactly
// the arena segments that constitute the bank. This build writes one arena
// and one commit per file (a grown bank is saved whole, like a cold build);
// files grown in place by earlier builds carry further arenas, each followed
// by a commit naming the union, and read as their last intact commit.
// Because arena payloads are raw aligned LE uint32s, a bank file opens via
// mmap and serves oracle reads zero-copy. Every open checks every payload
// CRC, so it reads every page once: the mapping is resident when the open
// returns.
//
// A shard on the wire (MarshalShardV4) is the same container, rendered the
// same way: an arena segment for its range, followed by a flags segment
// (dimensions + divergence flags) in place of a commit.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"noisyeval/internal/core/bankseg"
)

// Segment kinds.
const (
	segKindCommit     = 1 // segment directory + bank metadata; the commit point
	segKindArena      = 2 // error sub-arena for configs [lo, hi)
	segKindShardFlags = 3 // shard images only: tensor dims + divergence flags of [lo, hi)
)

// CorruptError locates bank-content corruption: which part of the image
// failed, and at what byte offset. The BankStore counts these under
// StoreStats.CorruptSegment; cmd/bank -info prints them.
type CorruptError struct {
	Path    string // file path when known
	Section string // "header" (not a current-version file header at all) | "segment"
	Segment int    // segment index; -1 for the header
	Offset  int64  // byte offset of the failing header/segment start
	Err     error
}

func (e *CorruptError) Error() string {
	loc := e.Section
	if e.Section == "segment" {
		loc = fmt.Sprintf("segment %d", e.Segment)
	}
	if e.Path != "" {
		return fmt.Sprintf("core: corrupt bank %s: %s at offset %d: %v", e.Path, loc, e.Offset, e.Err)
	}
	return fmt.Sprintf("core: corrupt bank: %s at offset %d: %v", loc, e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// wrapSegmentErr lifts a bankseg structural failure into the coded
// CorruptError callers branch on; other errors (I/O) pass through.
func wrapSegmentErr(path string, err error) error {
	var se *bankseg.CorruptError
	switch {
	case errors.As(err, &se):
		return &CorruptError{Path: path, Section: "segment", Segment: se.Segment, Offset: se.Offset, Err: err}
	case errors.Is(err, bankseg.ErrNotSegmented):
		return &CorruptError{Path: path, Section: "header", Segment: -1, Err: err}
	}
	return err
}

// v4Corrupt builds a coded corruption error for one segment.
func v4Corrupt(path string, segment int, offset int64, format string, args ...any) *CorruptError {
	return &CorruptError{
		Path: path, Section: "segment", Segment: segment, Offset: offset,
		Err: fmt.Errorf(format, args...),
	}
}

// arenaTag packs an arena segment's config range into its 16-byte tag.
func arenaTag(lo, hi int) (t [16]byte) {
	t[0], t[1], t[2], t[3] = byte(lo), byte(lo>>8), byte(lo>>16), byte(lo>>24)
	t[4], t[5], t[6], t[7] = byte(hi), byte(hi>>8), byte(hi>>16), byte(hi>>24)
	return t
}

func arenaTagRange(t [16]byte) (lo, hi int) {
	lo = int(uint32(t[0]) | uint32(t[1])<<8 | uint32(t[2])<<16 | uint32(t[3])<<24)
	hi = int(uint32(t[4]) | uint32(t[5])<<8 | uint32(t[6])<<16 | uint32(t[7])<<24)
	return lo, hi
}

// v4DirEntry names one arena segment of a committed bank: its sequence
// number and the config range it covers.
type v4DirEntry struct {
	seq    uint64
	lo, hi int
}

// appendV4Commit renders a commit segment payload: the arena directory
// followed by the bank's metadata.
func appendV4Commit(buf []byte, dir []v4DirEntry, b *Bank) []byte {
	buf = appendU32(buf, uint32(len(dir)))
	for _, e := range dir {
		buf = appendU64(buf, e.seq)
		buf = appendU32(buf, uint32(e.lo))
		buf = appendU32(buf, uint32(e.hi))
	}
	return appendBankMeta(buf, b)
}

func parseV4Commit(payload []byte) ([]v4DirEntry, *Bank, error) {
	r := &metaReader{b: payload}
	n := r.count(16, "segment directory")
	dir := make([]v4DirEntry, n)
	for i := range dir {
		dir[i] = v4DirEntry{
			seq: r.u64("directory seq"),
			lo:  int(r.u32("directory lo")),
			hi:  int(r.u32("directory hi")),
		}
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	b, err := parseBankMeta(payload[r.off:])
	if err != nil {
		return nil, nil, err
	}
	return dir, b, nil
}

// SaveBankV4 writes the bank to path in bankfmt/v5 (the name predates v5):
// one full-range arena segment plus one commit segment, rendered into one
// image and published by bankseg.WriteFile (temp file, fsync, atomic
// rename), so readers only ever see complete, durable files. It refuses an
// arena the readers would refuse (dimsProduct's cap). The write is
// deterministic — equal bank content yields equal file bytes.
func SaveBankV4(b *Bank, path string) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("core: refusing to save invalid bank: %w", err)
	}
	m := &b.Errs
	cells, err := dimsProduct(m.Parts, m.Configs, m.Checkpoints, m.Clients)
	if err != nil {
		return fmt.Errorf("core: refusing to save bank: %w", err)
	}
	n := len(b.Configs)
	commit := appendV4Commit(nil, []v4DirEntry{{seq: 1, lo: 0, hi: n}}, b)
	img := bankseg.NewImage(cells*arenaElemBytes, len(commit))
	img = bankseg.AppendSegment(img, segKindArena, 1, arenaTag(0, n), func(p []byte) []byte { return bankseg.AppendUint32s(p, m.counts) })
	img = bankseg.AppendSegment(img, segKindCommit, 2, [16]byte{}, func(p []byte) []byte { return append(p, commit...) })
	if err := bankseg.WriteFile(path, img); err != nil {
		return fmt.Errorf("core: save bank: %w", err)
	}
	return nil
}

// liveCommit returns the index of the commit segment that defines the bank
// in f: the last commit before the first payload that fails its CRC. A bad
// payload bounds the intact prefix exactly like a structural failure —
// nothing at or after it can be trusted — and anything after the chosen
// commit is ignored. Every reader of a bank file (assembleBankV4, so every
// load and open, and InspectBank) picks its commit here, so they all name
// the same bank.
func liveCommit(f *bankseg.File) (int, error) {
	path := f.Path()
	segs := f.Segments()
	limit := len(segs)
	for i := range segs {
		if segs[i].VerifyPayload() != nil {
			limit = i
			break
		}
	}
	for i := limit - 1; i >= 0; i-- {
		if segs[i].Kind == segKindCommit {
			return i, nil
		}
	}
	if torn := f.Torn(); torn != nil && limit == len(segs) {
		return -1, wrapSegmentErr(path, torn)
	}
	if limit < len(segs) {
		return -1, v4Corrupt(path, limit, segs[limit].Offset, "payload CRC mismatch and no earlier commit segment")
	}
	return -1, v4Corrupt(path, 0, bankseg.FileHeaderLen, "no intact commit segment")
}

// assembleBankV4 turns a parsed segment container into the bank its live
// commit (liveCommit) names. Every image, mapped or not, is checked the
// same way: every payload CRC and every count against its client's example
// count. Where the bytes came from decides only where the counts live: one
// arena of a mapped file (f.Mapped; every SaveBankV4 file) is viewed in
// place, and the caller must then keep f open; anything else (a heap read,
// a peer's image, a legacy file grown in place with several arenas) is
// copied. The returned refs reports whether the bank references f's image.
func assembleBankV4(f *bankseg.File) (b *Bank, refs bool, err error) {
	path := f.Path()
	segs := f.Segments()
	commitIdx, err := liveCommit(f)
	if err != nil {
		return nil, false, err
	}
	commit := &segs[commitIdx]
	dir, bank, err := parseV4Commit(commit.Payload)
	if err != nil {
		return nil, false, v4Corrupt(path, commitIdx, commit.Offset, "commit segment: %w", err)
	}
	clients := 0
	if len(bank.ExampleCounts) > 0 {
		clients = len(bank.ExampleCounts[0])
	}
	parts, nConfigs, ckpts := len(bank.Partitions), len(bank.Configs), len(bank.Rounds)
	if _, err := dimsProduct(parts, nConfigs, ckpts, clients); err != nil {
		return nil, false, v4Corrupt(path, commitIdx, commit.Offset, "%w", err)
	}

	bySeq := make(map[uint64]*bankseg.Segment, commitIdx)
	for i := 0; i < commitIdx; i++ {
		bySeq[segs[i].Seq] = &segs[i]
	}
	slices.SortFunc(dir, func(a, b v4DirEntry) int { return a.lo - b.lo })
	pieces := make([]ErrMatrix, 0, len(dir))
	next := 0
	for _, e := range dir {
		s := bySeq[e.seq]
		if s == nil || s.Kind != segKindArena {
			return nil, false, v4Corrupt(path, commitIdx, commit.Offset, "directory names missing arena segment seq %d", e.seq)
		}
		if lo, hi := arenaTagRange(s.Tag); lo != e.lo || hi != e.hi {
			return nil, false, v4Corrupt(path, commitIdx, s.Offset, "arena segment seq %d tagged [%d,%d), directory says [%d,%d)", e.seq, lo, hi, e.lo, e.hi)
		}
		if e.lo != next || e.hi > nConfigs || e.lo >= e.hi {
			return nil, false, v4Corrupt(path, commitIdx, s.Offset, "arena range [%d,%d) invalid for %d configs after config %d", e.lo, e.hi, nConfigs, next)
		}
		next = e.hi
		wantCounts := parts * (e.hi - e.lo) * ckpts * clients
		if len(s.Payload) != wantCounts*arenaElemBytes {
			return nil, false, v4Corrupt(path, commitIdx, s.Offset, "arena segment seq %d has %d payload bytes, want %d", e.seq, len(s.Payload), wantCounts*arenaElemBytes)
		}
		var counts []uint32
		viewed := false
		if f.Mapped() {
			counts, viewed = bankseg.Uint32s(s.Payload)
		}
		if !viewed {
			counts = bankseg.CopyUint32s(s.Payload)
		}
		refs = viewed && len(dir) == 1
		pieces = append(pieces, ErrMatrix{Parts: parts, Configs: e.hi - e.lo, Checkpoints: ckpts, Clients: clients, counts: counts})
	}
	if next != nConfigs {
		return nil, false, v4Corrupt(path, commitIdx, commit.Offset, "arenas cover %d of %d configs", next, nConfigs)
	}
	bank.Errs = joinCounts(pieces)
	if err := bank.Validate(); err != nil {
		return nil, false, v4Corrupt(path, commitIdx, commit.Offset, "%w", err)
	}
	if err := bank.Errs.checkCounts(bank.ExampleCounts); err != nil {
		return nil, false, v4Corrupt(path, commitIdx, commit.Offset, "%w", err)
	}
	return bank, refs, nil
}

// nopCloser is the Closer OpenBankMapped returns when the bank holds no
// reference to a mapping (heap fallback, copied counts).
type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// OpenBankMapped opens a bank file for zero-copy serving: a bankfmt/v5 file
// is mmap'd and its error matrix backed directly by its mapped arena
// segment (a legacy file with several arenas is joined into a heap copy).
// The open checks what every read of a bank file checks — every
// payload CRC, every count — so it reads each page once, leaving the mapping
// resident for the first row sweep; CRC-32C runs at several GB/s, well
// under a millisecond for a quick bank. The returned Closer owns the
// mapping — Close only after every reader of the bank is done; oracle reads
// through a closed mapping fault. Platforms without mmap degrade to a heap
// load with a no-op Closer, so call sites need no platform branches. Errors
// classify exactly as LoadBank's do.
func OpenBankMapped(path string) (*Bank, io.Closer, error) {
	f, err := bankseg.Open(path)
	if err != nil {
		// What the segment layer rejects may be a valid artifact of a retired
		// generation: classify it before calling it corrupt.
		if prefix, perr := bankFilePrefix(path); perr == nil {
			if _, serr := sniffBankGeneration(prefix); serr != nil {
				return nil, nil, serr
			}
		}
		return nil, nil, wrapSegmentErr(path, err)
	}
	b, refs, err := assembleBankV4(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if !refs {
		f.Close()
		return b, nopCloser{}, nil
	}
	return b, f, nil
}

// OpenBankMappedWarm is OpenBankMapped, whose CRC pass already touches
// every page. It stays for the benchmark harness (bench/), its only caller.
func OpenBankMappedWarm(path string) (*Bank, io.Closer, error) { return OpenBankMapped(path) }

// bankFilePrefix returns the first (up to) 8 bytes of the file at path, the
// input of sniffBankGeneration.
func bankFilePrefix(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var prefix [8]byte
	n, _ := io.ReadFull(f, prefix[:])
	return prefix[:n], nil
}

// MarshalShardV4 renders a shard as a bankfmt/v5 image, the bytes a dist
// worker uploads: an arena segment tagged [Lo, Hi),
// then a flags segment under the same tag carrying the tensor dimensions
// and the per-config divergence flags. Deterministic in the shard's content.
func MarshalShardV4(sh *BankShard) ([]byte, error) {
	n := sh.Hi - sh.Lo
	if sh.Lo < 0 || n <= 0 || sh.Errs.Configs != n || len(sh.Diverged) != n {
		return nil, fmt.Errorf("core: marshal shard: range [%d, %d) with %d configs, %d flags",
			sh.Lo, sh.Hi, sh.Errs.Configs, len(sh.Diverged))
	}
	if err := sh.Errs.Validate(); err != nil {
		return nil, fmt.Errorf("core: marshal shard: %w", err)
	}
	m := &sh.Errs
	tag := arenaTag(sh.Lo, sh.Hi)
	// The flags payload is three uint32 dimensions and a byte per config.
	img := bankseg.NewImage(m.Parts*n*m.Checkpoints*m.Clients*arenaElemBytes, 12+n)
	img = bankseg.AppendSegment(img, segKindArena, 1, tag, func(p []byte) []byte { return bankseg.AppendUint32s(p, m.counts) })
	return bankseg.AppendSegment(img, segKindShardFlags, 2, tag, func(p []byte) []byte {
		p = appendU32(p, uint32(m.Parts))
		p = appendU32(p, uint32(m.Checkpoints))
		p = appendU32(p, uint32(m.Clients))
		return appendBools(p, sh.Diverged)
	}), nil
}

// UnmarshalShardV4 reads one MarshalShardV4 image. The bytes come off the
// wire from anything that can reach a coordinator, so it fails closed: the
// image must be exactly an arena segment and a flags segment with intact
// CRCs, agreeing tags, and an arena sized for the declared dimensions —
// anything else is a *CorruptError. It allocates nothing beyond the flags
// (the arena is a view into img on little-endian hosts), so bounding len(img)
// bounds the decode.
func UnmarshalShardV4(img []byte) (*BankShard, error) {
	sf, err := bankseg.Parse(img)
	if err != nil {
		return nil, wrapSegmentErr("", err)
	}
	if torn := sf.Torn(); torn != nil {
		return nil, wrapSegmentErr("", torn)
	}
	segs := sf.Segments()
	if len(segs) != 2 || segs[0].Kind != segKindArena || segs[1].Kind != segKindShardFlags {
		return nil, v4Corrupt("", 0, bankseg.FileHeaderLen, "shard image is not one arena segment followed by one flags segment")
	}
	arena, flags := &segs[0], &segs[1]
	for i := range segs {
		if err := segs[i].VerifyPayload(); err != nil {
			return nil, v4Corrupt("", i, segs[i].Offset, "%w", err)
		}
	}
	lo, hi := arenaTagRange(arena.Tag)
	if flags.Tag != arena.Tag {
		flo, fhi := arenaTagRange(flags.Tag)
		return nil, v4Corrupt("", 1, flags.Offset, "arena segment tagged [%d,%d), flags segment [%d,%d)", lo, hi, flo, fhi)
	}
	if lo < 0 || hi <= lo {
		return nil, v4Corrupt("", 0, arena.Offset, "shard range [%d,%d) invalid", lo, hi)
	}
	r := &metaReader{b: flags.Payload}
	parts, ckpts, clients := int(r.u32("parts")), int(r.u32("checkpoints")), int(r.u32("clients"))
	diverged := r.bools(hi-lo, "diverged")
	if err := r.done(); err != nil {
		return nil, v4Corrupt("", 1, flags.Offset, "flags segment: %w", err)
	}
	want, err := dimsProduct(parts, hi-lo, ckpts, clients)
	if err != nil {
		return nil, v4Corrupt("", 1, flags.Offset, "%w", err)
	}
	if len(arena.Payload) != want*arenaElemBytes {
		return nil, v4Corrupt("", 0, arena.Offset, "arena segment has %d payload bytes, dimensions %dx%dx%dx%d imply %d",
			len(arena.Payload), parts, hi-lo, ckpts, clients, want*arenaElemBytes)
	}
	counts, ok := bankseg.Uint32s(arena.Payload)
	if !ok {
		counts = bankseg.CopyUint32s(arena.Payload)
	}
	return &BankShard{
		Lo: lo, Hi: hi,
		Errs:     ErrMatrix{Parts: parts, Configs: hi - lo, Checkpoints: ckpts, Clients: clients, counts: counts},
		Diverged: diverged,
	}, nil
}

// Extend returns a new bank covering the plan's full config pool, of which
// this bank must be the prefix: the plan's pool begins with the bank's
// configs, and shards cover exactly the new range [len(b.Configs),
// plan.NumConfigs()). Because per-config training streams derive from
// (seed, "config-i") alone, the result is byte-identical to a cold build
// over the union pool with the same seed — pinned by TestGrownBankMatchesColdBuild.
// The receiver is unchanged (in-flight readers keep a consistent view), and
// the result holds its own copy of the receiver's counts and the shards':
// it does not read a mapped receiver's mapping, which may be closed first.
func (b *Bank) Extend(p *BuildPlan, shards []*BankShard) (*Bank, error) {
	n := len(b.Configs)
	if p.NumConfigs() <= n {
		return nil, fmt.Errorf("core: extend: plan has %d configs, bank already has %d", p.NumConfigs(), n)
	}
	if b.SpecName != p.pop.Spec.Name || b.Seed != p.seed {
		return nil, fmt.Errorf("core: extend: plan (%s, seed %d) does not match bank (%s, seed %d)",
			p.pop.Spec.Name, p.seed, b.SpecName, b.Seed)
	}
	for i := 0; i < n; i++ {
		if p.configs[i] != b.Configs[i] {
			return nil, fmt.Errorf("core: extend: plan pool diverges from bank pool at config %d", i)
		}
	}
	if !slices.Equal(p.rounds, b.Rounds) || !slices.Equal(p.parts, b.Partitions) {
		return nil, fmt.Errorf("core: extend: plan checkpoint/partition grid does not match bank")
	}
	for pi, row := range p.counts {
		if pi >= len(b.ExampleCounts) || !slices.Equal(row, b.ExampleCounts[pi]) {
			return nil, fmt.Errorf("core: extend: plan evaluation pools do not match bank (partition %d)", pi)
		}
	}
	prefix := &BankShard{Lo: 0, Hi: n, Errs: b.Errs, Diverged: b.Diverged}
	return AssembleBank(p, append([]*BankShard{prefix}, shards...))
}
