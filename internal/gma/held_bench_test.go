package gma

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/resultset"
	"gridrm/internal/security"
)

// legAnswer is a republisher's answer to a region leg over four sites of 16
// hosts each, as the wire decodes it: four columns and a status a site.
func legAnswer(b *testing.B) (*resultset.ResultSet, []core.SourceStatus) {
	meta, err := resultset.NewMetadata([]resultset.Column{
		{Name: "HostName", Kind: glue.String}, {Name: "Load", Kind: glue.Float},
		{Name: "CPUs", Kind: glue.Int}, {Name: "OS", Kind: glue.String},
	})
	if err != nil {
		b.Fatal(err)
	}
	bld := resultset.NewBuilder(meta)
	var sources []core.SourceStatus
	for s := 1; s <= 4; s++ {
		for h := 0; h < 16; h++ {
			bld.Append(fmt.Sprintf("s%d-host%02d.example.org", s, h), float64(h)/4, int64(4<<(h%3)), "Linux 6.1")
		}
		sources = append(sources, core.SourceStatus{Source: fmt.Sprint("repub-view:s", s), Cached: true, HarvestedAt: time.Unix(1000, 0), Rows: 16})
	}
	rs, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return rs, sources
}

// BenchmarkRepublisherLeg measures one hub → republisher leg through the
// router, the republisher's answer already decoded, so that only the
// router's own work differs between its cases. "changed": the views changed
// since every read, so each answer is in full and replaces the held one.
// "unchanged": each answer is a 304, served from the held answer.
func BenchmarkRepublisherLeg(b *testing.B) {
	for _, changed := range []bool{true, false} {
		name := "unchanged"
		if changed {
			name = "changed"
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			rs, sources := legAnswer(b)
			d := NewDirectory(0, nil)
			_ = d.RegisterContext(ctx, Registration{Name: "R", Endpoint: "http://r", Role: RoleRepublisher})
			tags := [2]string{strings.Repeat("a", 64), strings.Repeat("b", 64)}
			version := 0
			exec := func(_ context.Context, _ string, req core.QueryOptions) (*core.Response, error) {
				if changed {
					version ^= 1
				}
				if req.Validator == tags[version] {
					return &core.Response{NotModified: true, Validator: tags[version]}, nil
				}
				return &core.Response{Site: "R", SQL: req.SQL, ResultSet: rs, Sources: sources, Validator: tags[version]}, nil
			}
			r := NewRouter(d, exec, "A", Config{})
			req := core.QueryOptions{SQL: "SELECT HostName, Load, CPUs, OS FROM Processor", Site: "R",
				Region: []string{"s1", "s2", "s3", "s4"}, Principal: security.Principal{Name: "u", Roles: []string{"operator"}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.RemoteQueryContext(ctx, "R", req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
