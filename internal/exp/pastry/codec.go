package pastry

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The overlay's messages, and the DHT store's bodies routed over it, are
// gob: the experiment draws Figures 10 and 12 from their message counts and
// bytes, so their encoding stays what those figures were measured with. The
// production wire (internal/rpc, internal/store/remote) has its own format.

// Encode gob-encodes a value for a request or response body.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("pastry: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// MustEncode is Encode that panics on error; for values whose encodability
// is guaranteed by construction.
func MustEncode(v any) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode gob-decodes a request or response body into v.
func Decode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("pastry: decode: %w", err)
	}
	return nil
}
