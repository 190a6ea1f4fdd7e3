package engine

import (
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/funseeker/funseeker/internal/store"
)

// This file is the engine's replica-transfer surface: the primitives
// funseekerd exposes as GET/PUT /v1/result and GET /v1/keys so the
// router can copy *stored results* between replicas instead of
// recomputing them — the difference between warm and cold failover.

// ErrNoStore reports an operation that needs the persistent store on
// an engine configured without one.
var ErrNoStore = errors.New("engine: no persistent store configured")

// StoredValue returns the raw stored-result value for a hex store key,
// exactly as the store holds it (the versioned JSON the storecodec
// writes). ok is false when the key is absent.
func (e *Engine) StoredValue(keyHex string) (val []byte, ok bool, err error) {
	if e.store == nil {
		return nil, false, ErrNoStore
	}
	key, err := hex.DecodeString(keyHex)
	if err != nil || len(key) != storeKeyLen {
		return nil, false, fmt.Errorf("engine: malformed store key %q", keyHex)
	}
	return e.store.Get(key)
}

// InjectResult installs a stored-result value computed elsewhere under
// the given hex store key: it validates the codec (version, shape) and
// that the value's content hash matches the key — a replica must never
// be able to poison another's cache with a mislabeled result — then
// writes it through the store and warms the LRU. Re-injecting an
// existing key is an idempotent overwrite, like any same-key Put.
func (e *Engine) InjectResult(keyHex string, val []byte) error {
	if e.store == nil {
		return ErrNoStore
	}
	key, err := hex.DecodeString(keyHex)
	if err != nil {
		return fmt.Errorf("engine: malformed store key %q", keyHex)
	}
	k, err := parseStoreKey(key)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	a, sha, err := decodeStoredResult(val)
	if err != nil {
		return fmt.Errorf("engine: rejecting injected result: %w", err)
	}
	if sha != hex.EncodeToString(k.sum[:]) {
		return fmt.Errorf("engine: injected result sha256 %s does not match key", sha)
	}
	if err := e.store.Put(key, val); err != nil {
		e.storeErrors.Add(1)
		return err
	}
	if e.cache != nil {
		e.cache.add(k, a)
	}
	e.storeInjected.Add(1)
	return nil
}

// StoreKeys returns the hex store keys of every persisted result. The
// router's re-replication path diffs these sets across replicas to
// find what a rejoining node is missing.
func (e *Engine) StoreKeys() ([]string, error) {
	if e.store == nil {
		return nil, ErrNoStore
	}
	raw := e.store.Keys()
	keys := make([]string, 0, len(raw))
	for _, k := range raw {
		keys = append(keys, hex.EncodeToString(k))
	}
	return keys, nil
}

// CompactStore runs one explicit store compaction (the admin/CLI/test
// entry point; a store opened with store.Options.CompactEvery also runs
// the same rewrite on its own schedule).
func (e *Engine) CompactStore() (store.CompactResult, error) {
	if e.store == nil {
		return store.CompactResult{}, ErrNoStore
	}
	return e.store.Compact()
}
