package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/serve"
	"noisyeval/pkg/client"
)

// tmpfsMagic is statfs(2)'s f_type for tmpfs.
const tmpfsMagic = 0x01021994

// minTmpfsFree is the free space /dev/shm must offer before the harness uses
// it (a container's default 64 MiB shm would fill mid-run).
const minTmpfsFree = 512 << 20

// scratch is the run's hermetic directory tree. Every benchmark directory —
// bank cache, journal, figure output — lives under root, which is created
// fresh and removed on exit.
type scratch struct {
	root  string
	tmpfs bool
}

// newScratch prefers /dev/shm: the journal fsyncs before every 202, and on
// the sandbox's virtual disk that fsync alone moved one loop between 285 and
// 555 ops/s in back-to-back runs. On tmpfs the fsync code path still runs;
// the device's variance does not. Without a usable tmpfs the tree falls back
// to .bench_build/ under the working directory and harness.tmpfs reads 0.
func newScratch() (*scratch, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &st); err == nil && int64(st.Type) == tmpfsMagic &&
		int64(st.Bavail)*int64(st.Bsize) >= minTmpfsFree {
		if dir, err := os.MkdirTemp("/dev/shm", "noisybench-"); err == nil {
			return &scratch{root: dir, tmpfs: true}, nil
		}
	}
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("scratch: %w", err)
	}
	dir, err := os.MkdirTemp(base, "noisybench-")
	if err != nil {
		return nil, fmt.Errorf("scratch: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("scratch: %w", err)
	}
	return &scratch{root: abs}, nil
}

// sub creates and returns a fresh subdirectory.
func (s *scratch) sub(name string) (string, error) {
	dir := filepath.Join(s.root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch: %w", err)
	}
	return dir, nil
}

func (s *scratch) remove() { os.RemoveAll(s.root) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile, p in (0, 100].
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// stack is the real serving stack mounted in-process: mapped+warm bank store,
// durable run journal, manager with default pool and queue, and the daemon on
// a loopback listener, driven by one pkg/client caller over one keep-alive
// connection.
type stack struct {
	dir     string
	store   *core.BankStore
	mgr     *serve.Manager
	daemon  *serve.Daemon
	served  chan error
	base    string
	httpc   *http.Client
	sent    *countingTransport
	c       *client.Client
	stopped bool
}

// countingTransport counts the requests the one caller sends.
type countingTransport struct {
	http.RoundTripper
	n int
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n++
	return t.RoundTripper.RoundTrip(r)
}

// openStore opens the bank store at dir in the mode the daemon serves from:
// v4 entries, mmap'd and pre-touched (the ROADMAP's single-format direction).
func openStore(dir string) (*core.BankStore, error) {
	store, err := core.NewBankStore(dir)
	if err != nil {
		return nil, err
	}
	store.SetMapped(true)
	store.SetMappedWarm(true)
	return store, nil
}

// bootStack boots the stack over dir/cache and dir/journal. Workers,
// QueueDepth, TTL and the journal budget stay at their defaults.
func bootStack(dir string, scales map[string]exper.Config) (*stack, error) {
	store, err := openStore(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	jr, err := serve.OpenRunJournal(serve.JournalOptions{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	mgr := serve.NewManager(serve.Options{Store: store, Journal: jr, Scales: scales})
	d := serve.NewDaemon("127.0.0.1:0", mgr)
	addr, err := d.Listen()
	if err != nil {
		mgr.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{dir: dir, store: store, mgr: mgr, daemon: d, served: make(chan error, 1), base: "http://" + addr.String()}
	go func() { s.served <- d.Serve() }()
	s.sent = &countingTransport{RoundTripper: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	s.httpc = &http.Client{Transport: s.sent}
	s.c = client.New(s.base)
	s.c.HTTPClient = s.httpc
	s.c.Retry = client.NoRetry()
	return s, nil
}

// shutdown drains the daemon gracefully (journal compacted and closed) and
// waits for the serve goroutine; the store stays open for post-run checks.
func (s *stack) shutdown() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.daemon.Shutdown(ctx)
	s.httpc.CloseIdleConnections()
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// close shuts down and releases the store's mappings.
func (s *stack) close() error {
	if s == nil {
		return nil
	}
	err := s.shutdown()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}
