//go:build !unix

package store

import "os"

// readFile returns the contents of the file at path. Outside unix the store
// reads through os.ReadFile; read_unix.go has the lean reader.
func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
