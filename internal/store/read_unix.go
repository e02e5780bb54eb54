//go:build unix

package store

import (
	"slices"
	"syscall"
)

// readFile returns the contents of the file at path with one open, reads
// until end of file, and one close. It is os.ReadFile without the os.File:
// for an artifact of a few dozen bytes, os.File's set-up (registering the
// descriptor with the runtime poller, arming a finalizer) and the size
// probe cost more than the read itself. Only a file that fills the first
// buffer pays for a size probe, to make room for the rest at once.
func readFile(path string) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	data := make([]byte, 0, readBufSize)
	for {
		n, err := syscall.Read(fd, data[len(data):cap(data)])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, err
		case n == 0:
			return data, nil
		}
		data = data[:len(data)+n]
		if len(data) == cap(data) {
			size := 2 * len(data)
			var st syscall.Stat_t
			if syscall.Fstat(fd, &st) == nil && st.Size >= int64(size) {
				size = int(st.Size) + 1 // one byte over, for the read that sees the end
			}
			data = slices.Grow(data, size-len(data))
		}
	}
}
