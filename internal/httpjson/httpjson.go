// Package httpjson is the one capped body reader, JSON request decoder and
// JSON response writer behind every HTTP surface (internal/web, internal/gma).
package httpjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// MaxRequestBody bounds a request body on every surface: a request is SQL,
// a registration or a few names, so a megabyte is already generous.
const MaxRequestBody = 1 << 20

var errBodyTooLarge = errors.New("body too large")

// Appender is a body that writes its own JSON: AppendJSON appends the text to
// buf and returns the extended slice. WriteJSON and Marshal hand such a value
// the buffer instead of asking encoding/json, which would call MarshalJSON
// and then scan and copy what it got back.
type Appender interface {
	AppendJSON(buf []byte) ([]byte, error)
}

// Decoder is a body that reads its own JSON. DecodeJSON is given bytes nobody
// has checked, so it validates what it consumes, and it copies what it keeps:
// data is the pool's again once it returns.
type Decoder interface {
	DecodeJSON(data []byte) error
}

// bodies holds the buffers bodies are read into and encoded into. A buffer
// that had to grow past maxPooledBody is left to the collector, so one large
// answer does not pin its size in the pool.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

func putBody(p *[]byte) {
	if cap(*p) <= maxPooledBody {
		bodies.Put(p)
	}
}

// AppendFloat writes f the way encoding/json does ('f' form, 'e' for very
// small and very large magnitudes), and null when f is not finite.
func AppendFloat(buf []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(buf, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1] // e-09 → e-9
		buf = buf[:n-1]
	}
	return buf
}

// AppendString writes s as a JSON string with encoding/json's escaping:
// quote, backslash and control characters, the HTML-sensitive <, > and &,
// U+2028/U+2029, and U+FFFD for bytes that are not UTF-8.
func AppendString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(append(buf, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			buf = append(append(buf, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(buf, s[start:]...), '"')
}

// Marshal is json.Marshal, except that an Appender writes itself.
func Marshal(v any) ([]byte, error) {
	if a, ok := v.(Appender); ok {
		return a.AppendJSON(nil)
	}
	return json.Marshal(v)
}

// ReadBody reads a whole body of at most limit bytes into a buffer the caller
// owns. A declared length lands in one buffer of exactly that size; only an
// undeclared one (declared < 0: chunked HTTP, or a raw stream read to EOF) is
// read by doubling, and no more than one byte of it past limit.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	return readBody(nil, r, declared, limit)
}

// readBody is ReadBody into buf's backing array, which it outgrows only when
// the body does.
func readBody(buf []byte, r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return buf, fmt.Errorf("%w: %d bytes declared, limit %d", errBodyTooLarge, declared, limit)
	}
	if declared >= 0 {
		buf = slices.Grow(buf[:0], int(declared))[:declared]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	for buf = buf[:0]; ; {
		buf = slices.Grow(buf, 512)
		// Never more than one byte past limit: that one tells a body of
		// limit bytes from a longer one.
		n, err := r.Read(buf[len(buf):min(cap(buf), int(limit)+1)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, fmt.Errorf("%w: limit %d", errBodyTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// DecodeBody reads a body of at most limit bytes (declared as for ReadBody)
// and decodes it into v: a Decoder reads itself, anything else goes through
// encoding/json. Either way v shares nothing with the buffer the body was
// read into, which goes back to the pool.
func DecodeBody(r io.Reader, declared, limit int64, v any) error {
	p := bodies.Get().(*[]byte)
	defer putBody(p)
	body, err := readBody(*p, r, declared, limit)
	*p = body
	if err != nil {
		return err
	}
	if d, ok := v.(Decoder); ok {
		return d.DecodeJSON(body)
	}
	return json.Unmarshal(body, v)
}

// ReadJSON decodes a request body of at most MaxRequestBody bytes into v.
// On failure it has answered the request (413 for an oversized body, 400
// otherwise) and returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := DecodeBody(http.MaxBytesReader(w, r.Body, MaxRequestBody), r.ContentLength, MaxRequestBody, v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.Is(err, errBodyTooLarge) || errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}

// ContentType is the Content-Type header value of every JSON body, request
// or answer. A header map's slices are replaced, never written in place, so
// all headers share this one; it must not be written.
var ContentType = []string{"application/json"}

// WriteJSON answers a request with v as JSON. The body is encoded before
// anything is sent, so a value that cannot be encoded is a 500 and not a 200
// with half a body, and the length is declared so the peer can read it into
// one buffer. An Appender is encoded into a pooled buffer, which is the
// pool's again once w.Write has returned.
func WriteJSON(w http.ResponseWriter, v any) {
	var body []byte
	var err error
	if a, ok := v.(Appender); ok {
		p := bodies.Get().(*[]byte)
		defer putBody(p)
		if body, err = a.AppendJSON((*p)[:0]); err == nil {
			*p = body
		}
	} else {
		body, err = json.Marshal(v)
	}
	if err != nil {
		http.Error(w, "encoding the response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h["Content-Type"] = ContentType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // the client hung up; there is nobody left to tell
}
