package web

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/resultset"
)

// TestWireRoundTripThroughJSON: arbitrary typed rows survive
// encode → JSON → decode with types and NULLs intact (the property every
// gateway-to-gateway hop depends on).
func TestWireRoundTripThroughJSON(t *testing.T) {
	meta, err := resultset.NewMetadata([]resultset.Column{
		{Name: "S", Kind: glue.String},
		{Name: "I", Kind: glue.Int},
		{Name: "F", Kind: glue.Float},
		{Name: "B", Kind: glue.Bool},
		{Name: "T", Kind: glue.Time},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(s string, i int32, fl float64, b bool, sec int32, nullMask uint8) bool {
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			return true // JSON numbers cannot carry these
		}
		row := []any{s, int64(i), fl, b, time.Unix(int64(sec), 0).UTC()}
		for bit := 0; bit < 5; bit++ {
			if nullMask&(1<<bit) != 0 {
				row[bit] = nil
			}
		}
		rs, err := resultset.NewBuilder(meta).Append(row...).Build()
		if err != nil {
			return false
		}
		buf, err := json.Marshal(WireResult{ResultSet: rs})
		if err != nil {
			return false
		}
		var wire WireResult
		if err := json.Unmarshal(buf, &wire); err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		back := wire.ResultSet
		got := back.RowAt(0)
		for c := range row {
			if row[c] == nil {
				if got[c] != nil {
					return false
				}
				continue
			}
			if tv, ok := row[c].(time.Time); ok {
				if !got[c].(time.Time).Equal(tv) {
					return false
				}
				continue
			}
			if !reflect.DeepEqual(got[c], row[c]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
