// Multisite: the paper's Fig 1 — three Grid sites, each with its own
// simulated agents and GridRM gateway (servlet), federated through a GMA
// directory. A client connected to site A transparently reads resource data
// owned by sites B and C; requests for remote data are routed through the
// Global layer to the gateway that owns the data.
//
//	go run ./examples/multisite
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"gridrm/internal/core"
	"gridrm/internal/glue"
	"gridrm/internal/gma"
	"gridrm/internal/security"
	"gridrm/internal/sitekit"
	"gridrm/internal/web"
)

type deployment struct {
	site     *sitekit.Site
	gw       *core.Gateway
	server   *http.Server
	endpoint string
	reg      *gma.Registrar
}

func deploySite(name string, hosts int, seed int64, dir gma.DirectoryService,
	hostDirectory *gma.Directory) (*deployment, error) {
	site, err := sitekit.Start(sitekit.Options{Name: name, Hosts: hosts, Seed: seed})
	if err != nil {
		return nil, err
	}
	gw, err := sitekit.NewGateway(site.Manifest(), site.Opts, false)
	if err != nil {
		site.Close()
		return nil, err
	}
	var dirHandler http.Handler
	if hostDirectory != nil {
		dirHandler = hostDirectory.Handler()
	}
	srv := web.NewServer(gw, nil, dirHandler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		site.Close()
		return nil, err
	}
	d := &deployment{
		site:     site,
		gw:       gw,
		endpoint: "http://" + ln.Addr().String(),
		server:   &http.Server{Handler: srv},
	}
	go func() { _ = d.server.Serve(ln) }()

	// The router caches lookups (stale-served during a directory
	// outage), breaks per remote endpoint, and hedges stragglers.
	router := gma.NewRouter(dir, web.RemoteQueryContext, name, gma.Config{
		RetryAttempts: 1,
		HedgeAfter:    500 * time.Millisecond,
	})
	router.RegisterMetrics(gw.Metrics())
	gw.SetGlobalRouter(router)
	srv.SetSiteLister(router.Sites)
	d.reg = gma.NewRegistrar(dir, gma.Registration{
		Name: name, Endpoint: d.endpoint, Groups: glue.GroupNames(),
	}, 10*time.Second)
	if err := d.reg.Start(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close tears the site down in dependency order: deregister from the GMA
// directory so peers stop routing here, drain the HTTP listener, then shut
// the gateway down (finishing in-flight queries) before stopping the agents.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if d.reg != nil {
		d.reg.Stop()
	}
	_ = d.server.Shutdown(ctx)
	_ = d.gw.Shutdown(ctx)
	d.site.Close()
}

func main() {
	// Site A hosts the GMA directory alongside its gateway.
	directory := gma.NewDirectory(time.Minute, nil)

	siteA, err := deploySite("siteA", 3, 1001, directory, directory)
	if err != nil {
		log.Fatal(err)
	}
	defer siteA.close()
	siteB, err := deploySite("siteB", 5, 1002, directory, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer siteB.close()
	siteC, err := deploySite("siteC", 2, 1003, directory, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer siteC.close()

	regs, err := directory.ListContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range regs {
		fmt.Printf("GMA producer: %-8s at %s\n", r.Name, r.Endpoint)
	}

	// A client connects to ANY gateway — here site A — and queries each
	// site by name; remote requests route gateway-to-gateway.
	client := &web.Client{
		BaseURL:   siteA.endpoint,
		Principal: security.Principal{Name: "multisite-demo", Roles: []string{"operator"}},
	}
	ctx := context.Background()
	sites, err := client.Sites(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsites reachable from %s: %v\n", siteA.endpoint, sites)

	for _, target := range sites {
		resp, err := client.Query(ctx, core.QueryOptions{
			SQL:  "SELECT HostName, LoadLast1Min FROM Processor ORDER BY LoadLast1Min DESC LIMIT 3",
			Site: target,
			Mode: core.ModeRealTime,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nbusiest hosts at %s (answered by %s in %s):\n%s",
			target, resp.Site, resp.Elapsed.Round(time.Microsecond), resp.ResultSet)
	}

	// The same consolidated view works for capacity planning across the
	// virtual organisation: free memory per site.
	fmt.Println()
	for _, target := range sites {
		resp, err := client.Query(ctx, core.QueryOptions{
			SQL:  "SELECT HostName, RAMAvailable FROM Memory ORDER BY RAMAvailable DESC LIMIT 1",
			Site: target,
		})
		if err != nil {
			log.Fatal(err)
		}
		resp.ResultSet.Next()
		host, _ := resp.ResultSet.GetString("HostName")
		free, _ := resp.ResultSet.GetInt("RAMAvailable")
		fmt.Printf("most free memory at %-8s %-16s %5d MB\n", target+":", host, free)
	}

	// One SQL statement over the whole virtual organisation: Site "*"
	// fans out to every federated gateway and consolidates the answers,
	// so ORDER BY/LIMIT are global.
	resp, err := client.Query(ctx, core.QueryOptions{
		SQL:  "SELECT HostName, LoadLast1Min FROM Processor ORDER BY LoadLast1Min DESC LIMIT 5",
		Site: core.AllSites,
		Mode: core.ModeRealTime,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe 5 busiest hosts in the whole VO (%d sites consolidated):\n%s",
		len(sites), resp.ResultSet)

	fmt.Printf("\nsite A gateway stats: %+v\n", siteA.gw.Stats())
}
