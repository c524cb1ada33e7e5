package web

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/httpjson"
	"gridrm/internal/resultset"
)

// A driver's 0/0 used to make encoding/json fail after the 200 had gone
// out, so the client got an empty body; it is a NULL cell now.
func TestNonFiniteCellOverHTTP(t *testing.T) {
	f := newFixture(t, nil)
	f.backend.SetLoad(math.NaN())
	resp, err := f.client.Query(context.Background(), core.QueryOptions{
		SQL: "SELECT HostName, LoadLast1Min FROM Processor", Mode: core.ModeRealTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultSet.Len() != 2 {
		t.Fatalf("rows = %d, want 2", resp.ResultSet.Len())
	}
	for i := 0; i < resp.ResultSet.Len(); i++ {
		if row := resp.ResultSet.RowAt(i); row[0] == nil || row[1] != nil {
			t.Errorf("row %d = %v, want a host name and a NULL load", i, row)
		}
	}
}

func TestWriteJSONReportsEncodeErrors(t *testing.T) {
	rec := httptest.NewRecorder()
	httpjson.WriteJSON(rec, EncodeResponse(&core.Response{})) // no ResultSet: cannot be encoded
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encoding the response") {
		t.Errorf("unencodable response -> %d %q, want 500", rec.Code, rec.Body.String())
	}
	meta, _ := resultset.NewMetadata([]resultset.Column{{Name: "N", Kind: glue.Int}})
	rec = httptest.NewRecorder()
	httpjson.WriteJSON(rec, EncodeResponse(&core.Response{ResultSet: resultset.New(meta)}))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("good response -> %d, Content-Length %q for %d bytes", rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
	}
}

func TestOversizedRequestsRejected(t *testing.T) {
	f := newFixture(t, nil)
	big := `{"sql":"` + strings.Repeat("x", httpjson.MaxRequestBody) + `"}`
	for _, path := range []string{"/query", "/poll"} {
		if resp := raw(t, f, http.MethodPost, path, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a declared %d-byte body -> %d, want 413", path, len(big), resp.StatusCode)
		}
		// The same body with no declared length (chunked).
		req, err := http.NewRequest(http.MethodPost, f.srv.URL+path, io.MultiReader(strings.NewReader(big)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a chunked %d-byte body -> %d, want 413", path, len(big), resp.StatusCode)
		}
	}
}

func TestClientCapsResponseBody(t *testing.T) {
	declared := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxResponseBody+1))
	}))
	defer declared.Close()
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		block := []byte(strings.Repeat(" ", 1<<20))
		for sent := 0; sent <= maxResponseBody; sent += len(block) {
			if _, err := w.Write(block); err != nil {
				return
			}
		}
	}))
	defer chunked.Close()
	for name, url := range map[string]string{"declared": declared.URL, "chunked": chunked.URL} {
		_, err := (&Client{BaseURL: url}).Sites(context.Background())
		if err == nil || !strings.Contains(err.Error(), "body too large") {
			t.Errorf("%s oversized response: err = %v, want body too large", name, err)
		}
	}
}
