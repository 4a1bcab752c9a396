package resp

import (
	"bytes"
	"testing"
)

// FuzzRead checks the protocol reader never panics or over-allocates on
// hostile input, and that values it accepts re-encode to something it
// accepts again (round-trip stability).
func FuzzRead(f *testing.F) {
	seeds := []string{
		"+OK\r\n",
		"-ERR broken\r\n",
		":12345\r\n",
		"$5\r\nhello\r\n",
		"$-1\r\n",
		"*2\r\n$1\r\na\r\n:9\r\n",
		"*-1\r\n",
		"$999999999999\r\n",
		"*3\r\n",
		"\r\n",
		"X?\r\n",
		// Partial frames: a well-formed header whose payload never arrives.
		"$5\r\nhel",
		"*2\r\n$1\r\na",
		"*2\r\n$1\r\na\r\n",
		"+OK",
		":12",
		// Inline errors, including a bare CR inside the message.
		"-\r\n",
		"-ERR bad\rdata\r\n",
		// Oversized bulk-string and array headers: lengths past the sane
		// limit, past int32, and a huge element inside a small array — the
		// reader must reject them without allocating the claimed size.
		"$1048577\r\n",
		"$2147483648\r\n",
		"*1\r\n$536870912\r\nx\r\n",
		"*2147483648\r\n",
		"$-2\r\n",
		// Lying lengths INSIDE the accepted bounds: headers the limit check
		// passes but whose payload never arrives. The chunked-read path must
		// fail on the missing bytes without committing the claimed size.
		"$419430400\r\nhello",
		"$1048576\r\n",
		"*1048576\r\n$1\r\na\r\n",
		"*3\r\n$3\r\nSET\r\n$419430400\r\nk\r\n",
		// Overflow-adjacent integer headers for the hand-rolled ParseInt.
		"$9223372036854775807\r\n",
		"$99999999999999999999\r\n",
		":9223372036854775807\r\n",
		":-9223372036854775808\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := NewReader(bytes.NewReader(data)).Read()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(v); err != nil {
			t.Fatalf("accepted value failed to encode: %+v: %v", v, err)
		}
		_ = w.Flush()
		v2, err := NewReader(&buf).Read()
		if err != nil {
			t.Fatalf("re-encoded value failed to parse: %q: %v", buf.Bytes(), err)
		}
		if v2.Kind != v.Kind || v2.Null != v.Null {
			t.Fatalf("round trip changed shape: %+v -> %+v", v, v2)
		}
	})
}
