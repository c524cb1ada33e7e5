// Alerts: the paper's Fig 4 event path, end to end. Native NetLogger usage
// records stream into the gateway's Event Manager through the inbound event
// driver, a threshold rule synthesises load alarms, listeners see them, and
// the alerts are transmitted back out to the NetLogger data source in its
// native ULM format.
//
//	go run ./examples/alerts
package main

import (
	"fmt"
	"log"
	"time"

	"gridrm/internal/drivers/netloggerdrv"
	"gridrm/internal/event"
	"gridrm/internal/sitekit"
)

func main() {
	// A busy site: the low alarm threshold makes the simulator emit
	// load-high events while we watch.
	site, err := sitekit.Start(sitekit.Options{Name: "noisy", Hosts: 6, Seed: 77, LoadAlarm: 1.5})
	if err != nil {
		log.Fatal(err)
	}
	defer site.Close()
	nlURL := "gridrm:netlogger://" + site.NL.Addr()

	mgr := event.NewManager()
	defer mgr.Close()

	// Inbound: consume the NetLogger STREAM, translating ULM records to
	// GridRM events via the driver's Formatter.
	if err := mgr.AttachInbound(&netloggerdrv.InboundEvents{URL: nlURL}); err != nil {
		log.Fatal(err)
	}

	// A threshold rule over the incoming usage records: load above 2.0
	// raises a GridRM alert (with hysteresis so it doesn't flap).
	if err := mgr.AddRule(event.ThresholdRule{
		Name:      "load-threshold",
		Match:     event.Filter{Name: "load.one"},
		Op:        event.Above,
		Threshold: 2.0,
		Rearm:     0.75,
	}); err != nil {
		log.Fatal(err)
	}

	// Outbound: GridRM alerts are translated back to native ULM records
	// and transmitted to the data source ("GridRM can pass events back
	// out to data sources as required", §3.1.5).
	if err := mgr.AddOutbound(event.Filter{Severity: event.SeverityAlert},
		&netloggerdrv.OutboundEvents{URL: nlURL}); err != nil {
		log.Fatal(err)
	}

	// A console listener, like the paper's monitoring clients.
	alerts := make(chan event.Event, 64)
	mgr.Subscribe(event.Filter{Severity: event.SeverityAlert}, func(ev event.Event) {
		select {
		case alerts <- ev:
		default:
		}
	})

	// Let the site run for 120 simulated seconds, sampling each tick so
	// the NetLogger agent keeps producing records.
	fmt.Println("running the site for 120 simulated seconds...")
	time.Sleep(100 * time.Millisecond) // let the STREAM attach
	for i := 0; i < 120; i++ {
		site.Step(1)
		// Pace the simulation so the event stream keeps up; a real site
		// produces records over two minutes, not two milliseconds.
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.After(2 * time.Second)
	var seen []event.Event
collect:
	for {
		select {
		case ev := <-alerts:
			seen = append(seen, ev)
		case <-deadline:
			break collect
		default:
			if len(seen) > 0 {
				// give stragglers a moment, then finish
				select {
				case ev := <-alerts:
					seen = append(seen, ev)
					continue
				case <-time.After(300 * time.Millisecond):
					break collect
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	fmt.Printf("\n%d alerts raised by the threshold rule:\n", len(seen))
	for _, ev := range seen {
		fmt.Printf("  %s  %-16s %-16s load=%.2f\n",
			ev.Time.Format("15:04:05"), ev.Name, ev.Host, ev.Value)
	}

	// The alert history is recorded for later analysis...
	hist := mgr.History(event.Filter{Severity: event.SeverityAlert}, time.Time{})
	fmt.Printf("\nevent manager history holds %d alerts; stats: %+v\n", len(hist), mgr.Stats())

	// ...and each alert really did arrive back at the data source as a
	// native ULM record.
	echoed := 0
	for _, ev := range seen {
		if rec, ok := site.NL.Latest(ev.Host, "load-threshold"); ok && rec.Prog == "gridrm" {
			echoed++
		}
	}
	fmt.Printf("alerts visible as native NetLogger records (PROG=gridrm): %d\n", echoed)

	// The simulator's own load-high alarms flowed through the same bridge.
	simAlerts := mgr.History(event.Filter{Name: "load-high"}, time.Time{})
	fmt.Printf("native simulator load-high alerts bridged inbound: %d\n", len(simAlerts))
}
