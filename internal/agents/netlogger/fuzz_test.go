package netlogger

import (
	"math"
	"testing"
	"time"
)

// FuzzParseRecord: ParseRecord never panics on a line, and a record it
// accepts survives Format and a second parse unchanged (a NaN value stays
// NaN).
func FuzzParseRecord(f *testing.F) {
	f.Add(Record{Date: time.Date(2003, 6, 1, 12, 0, 0, 500000000, time.UTC), Host: "nl-node00", Prog: "sensor",
		Level: "Usage", Event: "cpu.util", Value: 42.5}.Format())
	f.Add("DATE=20030601120000.000000 HOST=h NL.EVNT=e VAL=NaN")
	f.Add("DATE=20030601120000.000000 HOST=a=b PROG= LVL=Alert NL.EVNT=host.down VAL=-Inf extra=1")
	f.Add("DATE=20030601120000.000000 DATE=20030601120000.000000 HOST=h VAL=1") // repeated keys
	f.Add("DATE=99999999999999.999999 HOST=h NL.EVNT=e VAL=1")
	f.Add("VAL=0x1p-2 HOST=h NL.EVNT=e DATE=20030601120000.123456")
	f.Add("HOST")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRecord(line)
		if err != nil {
			return
		}
		again, err := ParseRecord(r.Format())
		if err != nil {
			t.Fatalf("an accepted record does not parse back: %v\nline   %q\nformat %q", err, line, r.Format())
		}
		same := again.Date.Equal(r.Date) && again.Host == r.Host && again.Prog == r.Prog &&
			again.Level == r.Level && again.Event == r.Event &&
			(again.Value == r.Value || math.IsNaN(again.Value) && math.IsNaN(r.Value))
		if !same {
			t.Fatalf("round trip changed the record\nline   %q\nfirst  %+v\nformat %q\nsecond %+v", line, r, r.Format(), again)
		}
	})
}
