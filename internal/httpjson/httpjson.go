// Package httpjson is the one capped body reader, JSON request decoder and
// JSON response writer behind every HTTP surface (internal/web, internal/gma).
package httpjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// MaxRequestBody bounds a request body on every surface: a request is SQL,
// a registration or a few names, so a megabyte is already generous.
const MaxRequestBody = 1 << 20

var errBodyTooLarge = errors.New("body too large")

// ReadBody reads a whole body of at most limit bytes. A declared length lands
// in one buffer of exactly that size; only an undeclared one (declared < 0:
// chunked HTTP, or a raw stream read to EOF) is read by doubling.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", errBodyTooLarge, declared, limit)
	}
	if declared >= 0 {
		buf := make([]byte, declared)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(buf)) > limit {
		err = fmt.Errorf("%w: limit %d", errBodyTooLarge, limit)
	}
	return buf, err
}

// ReadJSON decodes a request body of at most MaxRequestBody bytes into v.
// On failure it has answered the request (413 for an oversized body, 400
// otherwise) and returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, MaxRequestBody), r.ContentLength, MaxRequestBody)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
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
// one buffer.
func WriteJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding the response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // the client hung up; there is nobody left to tell
}
