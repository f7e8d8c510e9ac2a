//go:build !unix

package bankseg

import (
	"errors"
	"os"
)

// mmapSupported gates the zero-copy open path; platforms without mmap fall
// back to heap reads (Open degrades to OpenHeap).
const mmapSupported = false

func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.New("bankseg: mmap unsupported on this platform")
}

func munmap(data []byte) error { return nil }
