// Package httpjson is the one capped body reader, JSON request decoder and
// JSON response writer behind every HTTP surface (internal/web, internal/gma).
package httpjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
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
// read by doubling.
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
		n, err := r.Read(buf[len(buf):cap(buf)])
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
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // the client hung up; there is nobody left to tell
}
