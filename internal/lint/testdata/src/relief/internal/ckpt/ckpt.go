// nopanic fixture for the checkpoint envelope, which decodes bytes from
// outside the process.
package ckpt

import "errors"

// Open reports a malformed envelope as an error; a panic is a regression.
func Open(data []byte) ([]byte, error) {
	if len(data) == 0 {
		panic("ckpt: empty envelope") // want `panic in ckpt Open: the facade/workload API contract is error returns`
	}
	return data, nil
}

// MustOpen panics by convention; no diagnostic.
func MustOpen(data []byte) []byte {
	if len(data) == 0 {
		panic(errors.New("ckpt: empty envelope"))
	}
	return data
}
