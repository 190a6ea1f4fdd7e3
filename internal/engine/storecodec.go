package engine

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/funseeker/funseeker/internal/elfx"
)

// storeKey flattens a cacheKey into the byte key the persistent store
// is addressed by: 32 hash bytes, one option byte, one arch byte. The
// layout is part of the on-disk format — changing it orphans (but does
// not corrupt) existing stores.
func storeKey(k cacheKey) []byte {
	key := make([]byte, 0, len(k.sum)+2)
	key = append(key, k.sum[:]...)
	key = append(key, k.opts, byte(k.arch))
	return key
}

// storeKeyLen is the exact encoded length of a store key.
const storeKeyLen = sha256.Size + 2

// parseStoreKey is storeKey's inverse; the replication path uses it to
// recover the cache identity of a result arriving from another replica.
func parseStoreKey(b []byte) (cacheKey, error) {
	if len(b) != storeKeyLen {
		return cacheKey{}, fmt.Errorf("store key is %d bytes, want %d", len(b), storeKeyLen)
	}
	var k cacheKey
	copy(k.sum[:], b[:sha256.Size])
	k.opts = b[sha256.Size]
	k.arch = elfx.Arch(b[sha256.Size+1])
	return k, nil
}

// storedResultVersion gates the value codec; bump it when storedValue
// changes incompatibly, and old records decode as misses instead of as
// garbage. Version 1 kept the sets E, C, J and J′ in full; version 2
// keeps only the answer.
const storedResultVersion = 2

// storedValue is the persistent form of one result: the answer between
// the codec version and the content hash the replication path checks
// against the key. JSON keeps it dependency-free, debuggable with jq
// against a segment file, and tolerant of field additions.
type storedValue struct {
	Version int `json:"v"`
	*Answer
	SHA256 string `json:"sha256"`
}

// encodeStoredResult serializes an answer and its image's hex content
// hash for the store.
func encodeStoredResult(a *Answer, sha string) ([]byte, error) {
	return json.Marshal(storedValue{Version: storedResultVersion, Answer: a, SHA256: sha})
}

// decodeStoredResult parses a stored value back into its answer and hex
// content hash.
func decodeStoredResult(val []byte) (*Answer, string, error) {
	sv := storedValue{Answer: &Answer{}}
	err := json.Unmarshal(val, &sv)
	// A record of another version may not fit this one's fields (a
	// version-1 record's sets do not fit the counts): name the version,
	// not the misfit.
	var misfit *json.UnmarshalTypeError
	if (err == nil || errors.As(err, &misfit)) && sv.Version != storedResultVersion {
		return nil, "", fmt.Errorf("stored result version %d, want %d", sv.Version, storedResultVersion)
	}
	if err != nil {
		return nil, "", err
	}
	if len(sv.SHA256) != 2*sha256.Size {
		return nil, "", fmt.Errorf("stored result with malformed sha256 %q", sv.SHA256)
	}
	return sv.Answer, sv.SHA256, nil
}
