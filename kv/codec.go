package kv

import (
	"encoding/json"
	"strconv"
)

// Codec converts typed values to and from the byte slices stored by a Store.
// Codecs must be safe for concurrent use.
type Codec[V any] interface {
	Encode(v V) ([]byte, error)
	Decode(data []byte) (V, error)
}

// KeyCodec converts typed keys to the string keys used by a Store. Encoding
// must be injective: distinct keys must map to distinct strings.
type KeyCodec[K any] interface {
	EncodeKey(k K) (string, error)
	DecodeKey(s string) (K, error)
}

// --- value codecs ---

// JSONCodec marshals values with encoding/json. The natural choice for
// document-style stores.
type JSONCodec[V any] struct{}

func (JSONCodec[V]) Encode(v V) ([]byte, error) { return json.Marshal(v) }

func (JSONCodec[V]) Decode(data []byte) (V, error) {
	var v V
	err := json.Unmarshal(data, &v)
	return v, err
}

// --- key codecs ---

// Int64Key renders int64 keys in decimal.
type Int64Key struct{}

func (Int64Key) EncodeKey(k int64) (string, error) { return strconv.FormatInt(k, 10), nil }

func (Int64Key) DecodeKey(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
