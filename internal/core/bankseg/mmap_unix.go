//go:build unix

package bankseg

import (
	"os"
	"syscall"
)

// mmapSupported gates the zero-copy open path; on unix it is real mmap(2).
const mmapSupported = true

// mmapFile maps the whole file read-only. MAP_SHARED keeps the pages backed
// by the page cache — many mapped banks share physical memory with each
// other and with any concurrent heap reader of the same file.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(data []byte) error { return syscall.Munmap(data) }
