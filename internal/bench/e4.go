package bench

import (
	"fmt"
	"testing"

	"gridrm/internal/driver"
	"gridrm/internal/drivers/gangliadrv"
	"gridrm/internal/drivers/netloggerdrv"
	"gridrm/internal/drivers/nwsdrv"
	"gridrm/internal/drivers/scmsdrv"
	"gridrm/internal/drivers/snmpdrv"
	"gridrm/internal/schema"
	"gridrm/internal/sitekit"
)

func init() {
	register(Experiment{
		ID:     "e4",
		Anchor: "§3.2.3: experiences with a range of GridRM drivers",
		Claim: "SNMP/NetLogger support fine-grained native requests with little parsing; " +
			"Ganglia/NWS responses are coarse-grained and parse-heavy, so per-plug-in " +
			"caching slashes their cost; native requests per query show the granularity gap",
		run: runE4,
	})
}

func runE4(r *run) error {
	site, err := sitekit.Start(sitekit.Options{Name: "e4", Hosts: 6, Seed: 44})
	if err != nil {
		return err
	}
	defer site.Close()
	m := site.Manifest()

	sm := schema.NewManager()
	for _, ds := range []*schema.DriverSchema{
		snmpdrv.Schema(), gangliadrv.Schema(), nwsdrv.Schema(),
		netloggerdrv.Schema(), scmsdrv.Schema(),
	} {
		if err := sm.Register(ds); err != nil {
			return err
		}
	}

	type probe struct {
		label    string
		drv      driver.Driver
		url      string
		props    driver.Properties
		requests func() int64
		style    string
		sql      string
	}
	const procSQL = "SELECT * FROM Processor"
	probes := []probe{
		{"jdbc-snmp (scalar group)", snmpdrv.New(sm), "gridrm:snmp://" + m.SNMP[0], nil,
			site.SNMP[0].Requests, "fine", procSQL},
		{"jdbc-snmp (table walk)", snmpdrv.New(sm), "gridrm:snmp://" + m.SNMP[0], nil,
			site.SNMP[0].Requests, "fine", "SELECT * FROM Process"},
		{"jdbc-netlogger", netloggerdrv.New(sm), "gridrm:netlogger://" + m.NetLogger, nil,
			site.NL.Requests, "fine", procSQL},
		{"jdbc-scms", scmsdrv.New(sm), "gridrm:scms://" + m.SCMS, nil,
			site.SCMS.Requests, "coarse-line", procSQL},
		{"jdbc-ganglia (no cache)", gangliadrv.New(sm), "gridrm:ganglia://" + m.Ganglia,
			driver.Properties{"cache_ttl": "0s"}, site.Gmon.Requests, "coarse-xml", procSQL},
		{"jdbc-ganglia (1s cache)", gangliadrv.New(sm), "gridrm:ganglia://" + m.Ganglia,
			driver.Properties{"cache_ttl": "1h"}, site.Gmon.Requests, "coarse-xml", procSQL},
		{"jdbc-nws (no cache)", nwsdrv.New(sm), "gridrm:nws://" + m.NWS,
			driver.Properties{"cache_ttl": "0s"}, site.NWS.Requests, "coarse-text", procSQL},
		{"jdbc-nws (1s cache)", nwsdrv.New(sm), "gridrm:nws://" + m.NWS,
			driver.Properties{"cache_ttl": "1h"}, site.NWS.Requests, "coarse-text", procSQL},
	}

	t := newTable(r.w, "driver", "style", "latency/query", "native reqs/query", "rows", "B/op", "allocs/op")
	for _, p := range probes {
		res := r.measure(p.label, func(b *testing.B) error {
			conn, err := p.drv.Connect(p.url, p.props)
			if err != nil {
				return err
			}
			defer conn.Close()
			stmt, err := conn.CreateStatement()
			if err != nil {
				return err
			}
			defer stmt.Close()
			// Warm-up (fills plug-in caches where configured).
			rs, err := stmt.ExecuteQuery(p.sql)
			if err != nil {
				return err
			}
			before := p.requests()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.ExecuteQuery(p.sql); err != nil {
					return err
				}
			}
			b.ReportMetric(float64(p.requests()-before)/float64(b.N), "native-reqs/op")
			b.ReportMetric(float64(rs.Len()), "rows")
			return nil
		})
		t.row(p.label, p.style, perOp(res), fmt.Sprintf("%.1f", res.Extra["native-reqs/op"]),
			int(res.Extra["rows"]), res.AllocedBytesPerOp(), res.AllocsPerOp())
	}
	t.flush()
	fmt.Fprintf(r.w, "\nnote: 'native reqs/query' counts protocol commands the agent served — the\n"+
		"per-OID round trips of SNMP versus one whole-cluster dump for Ganglia.\n")
	return nil
}
