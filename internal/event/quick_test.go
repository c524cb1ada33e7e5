package event

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gridrm/internal/router"
)

// TestFilterWildcardProperties: the empty filter matches everything; a
// filter built from an event's own fields matches it; severity mismatch
// never matches.
func TestFilterWildcardProperties(t *testing.T) {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '%' || r == '_' {
				return 'x'
			}
			return r
		}, s)
	}
	f := func(source, host, name string, sev uint8) bool {
		sevs := []string{SeverityUsage, SeverityAlert, SeverityStatus}
		ev := Event{
			Source:   clean(source),
			Host:     clean(host),
			Name:     clean(name),
			Severity: sevs[int(sev)%len(sevs)],
			Time:     time.Unix(0, 0),
		}
		if !(Filter{}).Matches(ev) {
			return false
		}
		exact := Filter{Source: ev.Source, Host: ev.Host, Name: ev.Name, Severity: ev.Severity}
		if !exact.Matches(ev) {
			return false
		}
		other := sevs[(int(sev)+1)%len(sevs)]
		return !(Filter{Severity: other}).Matches(ev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestHistoryNeverExceedsRing: however many events are published, History
// returns at most the configured ring size, ordered by time.
func TestHistoryNeverExceedsRing(t *testing.T) {
	f := func(count uint16, size uint8) bool {
		n := int(count%512) + 1
		ring := int(size%64) + 1
		m := newManager(router.Options{ReplaySize: ring})
		defer m.Close()
		for i := 0; i < n; i++ {
			m.Publish(Event{Name: "x", Value: float64(i), Time: time.Unix(int64(i), 0)})
		}
		hist := m.History(Filter{}, time.Time{})
		if len(hist) > ring {
			return false
		}
		want := n
		if want > ring {
			want = ring
		}
		if len(hist) != want {
			return false
		}
		for i := 1; i < len(hist); i++ {
			if hist[i].Time.Before(hist[i-1].Time) {
				return false
			}
		}
		// The ring keeps the newest events.
		return len(hist) == 0 || int(hist[len(hist)-1].Value) == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
