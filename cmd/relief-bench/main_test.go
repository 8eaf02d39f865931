package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestRegistryConsistency: no experiment name is registered twice.
func TestRegistryConsistency(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("experiment %q registered twice", e.name)
		}
		seen[e.name] = true
	}
}

// TestAllOutputDigest pins the bytes of "-exp all" in both formats, serial
// and with a parallel warm-up: every table and figure is deterministic, so
// a refactor of how they are built must leave the output untouched.
func TestAllOutputDigest(t *testing.T) {
	for _, tc := range []struct {
		format, digest string
		lines          int
	}{
		{"text", "a0f206fd6af3df4d370e0d0b20360d89fd3a903e5cb158423b4513f46b8125d2", 502},
		{"csv", "128a4e354da58c21f9a6e40cb5c29b929f58b4177a465cadc2b0cbd3d8ea1409", 450},
	} {
		for _, jobs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/jobs=%d", tc.format, jobs), func(t *testing.T) {
				var buf bytes.Buffer
				if err := run(&buf, "all", tc.format, "", jobs); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.digest {
					t.Errorf("sha256 = %s, want %s", got, tc.digest)
				}
				if n := bytes.Count(buf.Bytes(), []byte("\n")); n != tc.lines {
					t.Errorf("%d lines, want %d", n, tc.lines)
				}
			})
		}
	}
}
