// Package ckpt defines the versioned on-disk envelope for simulator
// checkpoints, mirroring the disk-spill envelope discipline in
// internal/serve: a JSON wrapper declaring a schema version and carrying a
// checksum over the opaque gob payload, so a truncated, tampered, or
// foreign file is rejected before any of it is decoded.
package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Schema is the envelope version tag. Bump on any incompatible change to
// the payload layout.
const Schema = "relief-ckpt/2"

// Envelope wraps a gob-encoded checkpoint payload with enough metadata to
// validate it and to decide which runs it can seed.
type Envelope struct {
	// Schema must equal the package Schema constant.
	Schema string `json:"schema"`
	// Key is the full scenario key of the run that produced the checkpoint.
	Key string `json:"key"`
	// ForkKey is the scenario key with the horizon zeroed: every scenario
	// sharing it has an identical state trajectory up to the capture instant,
	// so one warmed checkpoint seeds all of them.
	ForkKey string `json:"fork_key"`
	// CapturedPs is the simulation time of the capture, in picoseconds.
	CapturedPs int64 `json:"captured_ps"`
	// Sum is the hex SHA-256 of Payload.
	Sum string `json:"sum"`
	// Payload is the gob-encoded manager.Checkpoint (base64 via JSON).
	Payload []byte `json:"payload"`
}

// Seal wraps a gob payload in a checksummed envelope and returns its JSON
// encoding.
func Seal(key, forkKey string, capturedPs int64, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	env := Envelope{
		Schema:     Schema,
		Key:        key,
		ForkKey:    forkKey,
		CapturedPs: capturedPs,
		Sum:        hex.EncodeToString(sum[:]),
		Payload:    payload,
	}
	return json.Marshal(&env)
}

// Open parses and validates an envelope, rejecting unknown schemas and
// payloads whose checksum does not match.
func Open(data []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ckpt: malformed envelope: %w", err)
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("ckpt: unsupported schema %q (want %q)", env.Schema, Schema)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Sum {
		return nil, fmt.Errorf("ckpt: payload checksum mismatch (corrupt or tampered checkpoint)")
	}
	return &env, nil
}
