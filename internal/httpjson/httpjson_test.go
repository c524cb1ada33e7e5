package httpjson

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// chunked hides a reader's length, as a body with no Content-Length does.
func chunked(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) }

func TestReadBody(t *testing.T) {
	const text = `{"name":"siteA"}`
	for name, c := range map[string]struct {
		r        io.Reader
		declared int64
	}{
		"declared":   {strings.NewReader(text), int64(len(text))},
		"undeclared": {chunked(text), -1},
	} {
		got, err := ReadBody(c.r, c.declared, 64)
		if err != nil || string(got) != text {
			t.Errorf("%s: %q, %v", name, got, err)
		}
	}
	if _, err := ReadBody(strings.NewReader(text), int64(len(text)), 4); !errors.Is(err, errBodyTooLarge) {
		t.Errorf("declared past the limit: %v", err)
	}
	if _, err := ReadBody(chunked(text), -1, 4); !errors.Is(err, errBodyTooLarge) {
		t.Errorf("undeclared past the limit: %v", err)
	}
	if got, err := ReadBody(chunked(text), -1, int64(len(text))); err != nil || string(got) != text {
		t.Errorf("undeclared at the limit: %q, %v", got, err)
	}
	if _, err := ReadBody(strings.NewReader(text[:5]), int64(len(text)), 64); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: %v", err)
	}
}

// selfCoded encodes and decodes itself, and says when it was asked to.
type selfCoded struct {
	text            string
	appended, asked bool
}

func (s *selfCoded) AppendJSON(buf []byte) ([]byte, error) {
	s.appended = true
	if s.text == "" {
		return nil, errors.New("nothing to say")
	}
	return strconv.AppendQuote(buf, s.text), nil
}

func (s *selfCoded) DecodeJSON(data []byte) (err error) {
	s.asked = true
	s.text, err = strconv.Unquote(string(data))
	return err
}

// TestSelfCodedValuesSkipEncodingJSON: an Appender and a Decoder are handed
// the buffer; everything else goes through encoding/json as before; and
// neither kind of value is left pointing into a buffer that has gone back to
// the pool.
func TestSelfCodedValuesSkipEncodingJSON(t *testing.T) {
	var first, second selfCoded
	var plain struct{ Name string }
	for _, step := range []struct {
		body string
		into any
	}{{`"one"`, &first}, {`{"Name":"siteA"}`, &plain}, {`"two, which is longer"`, &second}} {
		if err := DecodeBody(strings.NewReader(step.body), int64(len(step.body)), 64, step.into); err != nil {
			t.Fatal(err)
		}
	}
	if !first.asked || first.text != "one" || second.text != "two, which is longer" || plain.Name != "siteA" {
		t.Errorf("decoded %+v, %+v, %+v", first, plain, second)
	}
	if err := DecodeBody(strings.NewReader(`{`), 1, 64, &plain); err == nil {
		t.Error("malformed JSON accepted")
	}

	rec := httptest.NewRecorder()
	WriteJSON(rec, &first)
	if !first.appended || rec.Body.String() != `"one"` || rec.Header().Get("Content-Length") != "5" {
		t.Errorf("self-encoded: %q, length %q", rec.Body, rec.Header().Get("Content-Length"))
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, &selfCoded{})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("failed AppendJSON -> %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, plain)
	if rec.Body.String() != `{"Name":"siteA"}` {
		t.Errorf("reflective: %q", rec.Body)
	}
	if body, err := Marshal(&second); err != nil || string(body) != `"two, which is longer"` {
		t.Errorf("Marshal(self-encoded) = %q, %v", body, err)
	}
	if body, err := Marshal(plain); err != nil || string(body) != `{"Name":"siteA"}` {
		t.Errorf("Marshal(reflective) = %q, %v", body, err)
	}
}

// A body that outgrew maxPooledBody is not kept: whatever the pool hands out
// next is no larger than that.
func TestLargeBuffersAreNotPooled(t *testing.T) {
	big := `"` + strings.Repeat("x", 2*maxPooledBody) + `"`
	var s selfCoded
	for i := 0; i < 4; i++ {
		if err := DecodeBody(bytes.NewReader([]byte(big)), int64(len(big)), int64(len(big)), &s); err != nil {
			t.Fatal(err)
		}
		WriteJSON(httptest.NewRecorder(), &s)
	}
	for i := 0; i < 8; i++ {
		if p := bodies.Get().(*[]byte); cap(*p) > maxPooledBody {
			t.Fatalf("the pool kept a %d-byte buffer", cap(*p))
		}
	}
}
