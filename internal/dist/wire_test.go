package dist

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"noisyeval/internal/core"
	"noisyeval/internal/core/bankseg"
)

// testShardBound is the inflate bound the wire tests decode under: far above
// a test shard's image (a few KB), small enough that a payload running past
// it is cheap to build and to refuse.
const testShardBound = 1 << 20

func gz(t testing.TB, data []byte) []byte {
	t.Helper()
	out, err := gzipMember(func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hostileShardPayloads returns one valid upload for configs [lo, hi) of plan
// and every way this package knows to get one wrong, keyed by name. All but
// "valid" must be refused by DecodeShard — or, for "other dims", by the
// shape check behind POST /v1/work/complete.
func hostileShardPayloads(t testing.TB, plan *core.BuildPlan, lo, hi int) (valid []byte, bad map[string][]byte) {
	t.Helper()
	sh, err := plan.TrainRange(lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	valid, err = EncodeShard(sh)
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.MarshalShardV4(sh)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := bankseg.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	arena, flags := sf.Segments()[0], sf.Segments()[1]

	// The flags segment re-tagged for another range (header CRC kept valid by
	// re-rendering the segment), so the two segments disagree.
	retagged := append([]byte(nil), img[:flags.Offset]...)
	otherTag := arena.Tag
	otherTag[0]++
	otherTag[4]++
	retagged = bankseg.AppendSegment(retagged, flags.Kind, flags.Seq, otherTag, flags.Payload)

	crcFlip := append([]byte(nil), img...)
	crcFlip[arena.Offset+bankseg.SegmentHeaderLen+5] ^= 0x20

	// The same image under a bankfmt/v4 file header (version 4, header CRC
	// recomputed): a retired generation is refused, never decoded.
	v4 := append([]byte(nil), img...)
	binary.LittleEndian.PutUint16(v4[6:8], 4)
	binary.LittleEndian.PutUint32(v4[60:64], crc32.Checksum(v4[:60], crc32.MakeTable(crc32.Castagnoli)))

	// A well-formed shard of the right range whose tensor is sized for a
	// different build (one client fewer).
	small := *sh
	small.Errs = core.NewErrMatrix(sh.Errs.Parts, sh.Errs.Configs, sh.Errs.Checkpoints, sh.Errs.Clients-1)
	otherDims, err := EncodeShard(&small)
	if err != nil {
		t.Fatal(err)
	}

	bad = map[string][]byte{
		"truncated gzip":       valid[:len(valid)/2],
		"not gzip":             img,
		"inflate bomb":         gz(t, make([]byte, 4*testShardBound)),
		"tag disagrees":        gz(t, retagged),
		"payload CRC flip":     gz(t, crcFlip),
		"v4 file header":       gz(t, v4),
		"v3 NESHRD frame":      gz(t, append([]byte("NESHRD\x03\x00\x01\x00\x00\x00"), make([]byte, 200)...)),
		"v3 NESHRD frame, raw": append([]byte("NESHRD\x03\x00\x01\x00\x00\x00"), make([]byte, 200)...),
		"other dims":           otherDims,
		"empty":                nil,
	}
	return valid, bad
}

// FuzzShardDecode asserts the decoder behind POST /v1/work/complete — the
// one endpoint anything that can reach a coordinator can post bytes to —
// never panics, never allocates far past its bound, and only ever returns
// internally consistent shards.
func FuzzShardDecode(f *testing.F) {
	plan, err := core.NewBuildPlan(testPop(f), testOpts(), 5)
	if err != nil {
		f.Fatal(err)
	}
	valid, bad := hostileShardPayloads(f, plan, 1, 3)
	f.Add(valid)
	for _, payload := range bad {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sh, err := DecodeShard(bytes.NewReader(data), testShardBound)
		runtime.ReadMemStats(&after)
		// io.ReadAll grows geometrically, so a full-size payload costs a small
		// multiple of the bound in total; a decoder that ignored the bound
		// would show up as the payload's own size.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*testShardBound {
			t.Fatalf("decode allocated %d bytes under a %d-byte bound", grew, testShardBound)
		}
		if err != nil {
			return
		}
		n := sh.Hi - sh.Lo
		if sh.Lo < 0 || n <= 0 || sh.Errs.Configs != n || len(sh.Diverged) != n {
			t.Fatalf("decoded shard [%d,%d) has %d configs, %d flags", sh.Lo, sh.Hi, sh.Errs.Configs, len(sh.Diverged))
		}
		if verr := sh.Errs.Validate(); verr != nil {
			t.Fatalf("decoded shard fails validation: %v", verr)
		}
		if int64(len(sh.Errs.Counts))*4 > testShardBound {
			t.Fatalf("decoded arena of %d counts exceeds the %d-byte bound", len(sh.Errs.Counts), testShardBound)
		}
	})
}

// TestCompleteRefusesHostileUploads posts every hostile payload against a
// live leased job: each answers 400, none reaches assembly, the job is still
// completable afterwards, and the build finishes on the valid upload.
func TestCompleteRefusesHostileUploads(t *testing.T) {
	coord, _, plan, result := failureCluster(t)
	coord.maxShardBytes = testShardBound
	mux := http.NewServeMux()
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(job Job, payload []byte) int {
		t.Helper()
		q := url.Values{"job": {job.ID}, "worker": {"w"}}
		resp, err := http.Post(ts.URL+"/v1/work/complete?"+q.Encode(), "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	jobA, _ := coord.Lease("w")
	jobB, _ := coord.Lease("w")
	valid, bad := hostileShardPayloads(t, plan, jobA.Lo, jobA.Hi)
	for name, payload := range bad {
		if code := post(jobA, payload); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		// A rejected-but-decodable upload requeues the job ("other dims");
		// take it back so the next payload again meets a leased job.
		if j, ok := coord.Lease("w"); ok && j.ID != jobA.ID {
			t.Fatalf("%s: unexpected job %s leased", name, j.ID)
		}
	}
	if got := coord.Stats().ShardsCompleted; got != 0 {
		t.Fatalf("%d hostile uploads were accepted", got)
	}
	if code := post(jobA, valid); code != http.StatusOK {
		t.Fatalf("valid upload after the hostile ones: status %d", code)
	}
	validB, _ := hostileShardPayloads(t, plan, jobB.Lo, jobB.Hi)
	if code := post(jobB, validB); code != http.StatusOK {
		t.Fatalf("second valid upload: status %d", code)
	}
	waitBuild(t, result)
}

// TestPeerFetchIsBounded: a peer is another process's output. A body that
// inflates past the bound — here a handler that never stops streaming — is
// cut off at the bound and treated as a miss, as is a body that is not a
// gzipped bankfmt/v4 image (a v3 frame, raw v4 bytes).
func TestPeerFetchIsBounded(t *testing.T) {
	const limit = 1 << 20
	var streamed atomic.Int64
	bodies := map[string]http.HandlerFunc{
		"endless": func(w http.ResponseWriter, r *http.Request) {
			zw := gzip.NewWriter(w)
			// Incompressible, so the wire carries what the stream inflates to
			// and the handler blocks on the socket once the fetcher stops reading.
			chunk := make([]byte, 64<<10)
			rand.New(rand.NewSource(1)).Read(chunk)
			for r.Context().Err() == nil && streamed.Load() < 64*limit {
				if _, err := zw.Write(chunk); err != nil {
					return
				}
				streamed.Add(int64(len(chunk)))
			}
		},
		"v3 frame": func(w http.ResponseWriter, r *http.Request) {
			zw := gzip.NewWriter(w)
			zw.Write(append([]byte("NEBANK\x03\x00\x01\x00\x00\x00"), make([]byte, 200)...))
			zw.Close()
		},
		"not gzip": func(w http.ResponseWriter, r *http.Request) {
			w.Write(bankseg.NewImage())
		},
	}
	for name, h := range bodies {
		ts := httptest.NewServer(h)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bank, err := fetchBank(ts.Client(), ts.URL, "abc", limit)
		runtime.ReadMemStats(&after)
		ts.Close()
		if err == nil || bank != nil {
			t.Errorf("%s: fetchBank = %v, %v; want an error", name, bank, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*limit {
			t.Errorf("%s: fetch allocated %d bytes under a %d-byte bound", name, grew, limit)
		}
		switch name {
		case "endless":
			if !strings.Contains(err.Error(), "bound") {
				t.Errorf("endless: err = %v, want the inflate bound named", err)
			}
			if streamed.Load() >= 64*limit {
				t.Error("endless: the fetch drained the stream instead of stopping at the bound")
			}
		case "v3 frame":
			if !core.IsStaleBankFormat(err) {
				t.Errorf("v3 frame: err = %v, want a stale-format error", err)
			}
		}
	}

	// Through the builder, all of that is a peer miss followed by a real build.
	ts := httptest.NewServer(bodies["v3 frame"])
	defer ts.Close()
	b := &Builder{Peers: []string{ts.URL}}
	pop, opts := testPop(t), testOpts()
	bank, cached, err := b.BuildBank(context.Background(), pop, opts, 13)
	if err != nil || bank == nil || cached {
		t.Fatalf("build behind a bad peer: bank=%v cached=%v err=%v", bank != nil, cached, err)
	}
	if st := b.Stats(); st.PeerHits != 0 || st.PeerMisses != 1 {
		t.Errorf("builder stats = %+v, want 0 hits / 1 miss", st)
	}
}
