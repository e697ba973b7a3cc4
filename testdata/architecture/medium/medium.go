// Package medium is a fixture of TestArchitectureFixture (the repository
// root's architecture_test.go): every line that breaks one of its rows
// says so in a want comment.
package medium

import "hash/crc32" // want import

// Sum checksums b.
func Sum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
