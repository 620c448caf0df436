//go:build !unix

package lila

import (
	"io"
	"os"
)

// mapFile on platforms without mmap support reads the whole file via
// the io.ReaderAt surface instead; unmap is a no-op. Block decode
// still works — it just pays the full read up front.
func mapFile(f *os.File) (data []byte, unmap func() error, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	data, err = io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
