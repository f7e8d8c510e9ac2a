package core

// Bank file inspection: the structured view behind `cmd/bank -info`. It
// reads headers and segment tables without materializing a heap arena, so
// inspecting a large bank costs one mmap plus per-segment CRC sweeps.

import (
	"fmt"
	"os"

	"noisyeval/internal/core/bankseg"
)

// SegmentInfo describes one segment of a bankfmt/v5 file.
type SegmentInfo struct {
	Index  int    // position in the file walk
	Kind   string // "arena" | "commit" | "unknown(n)"
	Seq    uint64 // sequence number
	Lo, Hi int    // config range (arena segments; 0,0 otherwise)
	Offset int64  // file offset of the segment header
	Bytes  int64  // payload length
	CRCOK  bool   // payload checksum verified
	Live   bool   // named by the authoritative commit (or is that commit)
}

// BankInfo is the inspection report for one bank file. A file of a retired
// generation reports only Path, Version and FileBytes.
type BankInfo struct {
	Path    string
	Version int    // format generation: 5, or a retired one (0 = gob+gzip)
	Dims    [4]int // partitions, configs, checkpoints, clients

	SpecName string
	Seed     uint64

	FileBytes  int64 // on-disk size
	ArenaBytes int64 // mapped/decoded error-arena size (dims product × 4, one uint32 count each)

	Segments []SegmentInfo // full segment table
	Torn     string        // where the segment walk stopped early, if it did
}

// InspectBank reads path's segment table with per-segment CRC status
// without requiring the bank to be loadable — a torn or corrupt file still
// yields a report describing what is intact, next to the error. A file of a
// retired generation yields its version next to the stale-format error
// naming the fix.
func InspectBank(path string) (*BankInfo, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("core: inspect bank: %w", err)
	}
	prefix, err := bankFilePrefix(path)
	if err != nil {
		return nil, fmt.Errorf("core: inspect bank: %w", err)
	}
	info := &BankInfo{Path: path, FileBytes: fi.Size()}
	if info.Version, err = sniffBankGeneration(prefix); err != nil {
		return info, err
	}
	return inspectSegments(info)
}

func inspectSegments(info *BankInfo) (*BankInfo, error) {
	sf, err := bankseg.Open(info.Path)
	if err != nil {
		return nil, wrapSegmentErr(info.Path, err)
	}
	defer sf.Close()
	if torn := sf.Torn(); torn != nil {
		info.Torn = torn.Error()
	}
	segs := sf.Segments()
	commitIdx := -1
	for i := range segs {
		s := &segs[i]
		si := SegmentInfo{
			Index:  i,
			Seq:    s.Seq,
			Offset: s.Offset,
			Bytes:  int64(len(s.Payload)),
			CRCOK:  s.VerifyPayload() == nil,
		}
		switch s.Kind {
		case segKindArena:
			si.Kind = "arena"
			si.Lo, si.Hi = arenaTagRange(s.Tag)
		case segKindCommit:
			si.Kind = "commit"
			if si.CRCOK {
				commitIdx = i
			}
		default:
			si.Kind = fmt.Sprintf("unknown(%d)", s.Kind)
		}
		info.Segments = append(info.Segments, si)
	}
	if commitIdx < 0 {
		return info, v4Corrupt(info.Path, 0, bankseg.FileHeaderLen, "no intact commit segment")
	}
	dir, b, err := parseV4Commit(segs[commitIdx].Payload)
	if err != nil {
		return info, v4Corrupt(info.Path, commitIdx, segs[commitIdx].Offset, "commit segment: %w", err)
	}
	info.Segments[commitIdx].Live = true
	live := map[uint64]bool{}
	for _, e := range dir {
		live[e.seq] = true
	}
	for i := range info.Segments {
		if i < commitIdx && live[info.Segments[i].Seq] {
			info.Segments[i].Live = true
		}
	}
	clients := 0
	if len(b.ExampleCounts) > 0 {
		clients = len(b.ExampleCounts[0])
	}
	info.SpecName, info.Seed = b.SpecName, b.Seed
	info.Dims = [4]int{len(b.Partitions), len(b.Configs), len(b.Rounds), clients}
	info.ArenaBytes = int64(len(b.Partitions)) * int64(len(b.Configs)) * int64(len(b.Rounds)) * int64(clients) * arenaElemBytes
	return info, nil
}
