// Command mdt-portal runs the paper's MDT web portal (§5.1) as a long-
// running service: the full Fig. 4 deployment on one machine, with the
// web frontend bound to -http.
//
// Usage:
//
//	mdt-portal -http 127.0.0.1:8080 -patients 500 [-network-broker] [-import-every 30s]
//
// Accounts are provisioned per MDT (username = MDT id) plus "admin"; the
// shared password defaults to "mdt-password" (or set -password).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"safeweb/internal/mdt"
)

func main() {
	cfg := mdt.DeployConfig{Logf: log.Printf}
	httpAddr := flag.String("http", "127.0.0.1:8080", "frontend listen address")
	flag.IntVar(&cfg.Registry.Patients, "patients", 500, "synthetic registry size")
	flag.Int64Var(&cfg.Registry.Seed, "seed", 2026, "registry generation seed")
	flag.StringVar(&cfg.Password, "password", "", "account password (random default)")
	importEvery := flag.Duration("import-every", 0, "periodic re-import interval (0 = import once)")
	resolve := mdt.BindBrokerFlags(flag.CommandLine, &cfg)
	flag.Parse()

	if err := resolve(); err != nil {
		fmt.Fprintln(os.Stderr, "mdt-portal:", err)
		os.Exit(2)
	}
	if err := run(cfg, *httpAddr, *importEvery); err != nil {
		fmt.Fprintln(os.Stderr, "mdt-portal:", err)
		os.Exit(1)
	}
}

func run(cfg mdt.DeployConfig, httpAddr string, importEvery time.Duration) error {
	d, err := mdt.Deploy(cfg)
	if err != nil {
		return err
	}
	defer d.Stop()

	log.Printf("importing %d patients through the backend pipeline", cfg.Registry.Patients)
	if err := d.ImportAll(); err != nil {
		return err
	}
	log.Printf("import complete: %d documents (%d on the DMZ replica)", d.AppDB.Len(), d.DMZDB.Len())

	addr, err := d.ServeHTTP(httpAddr)
	if err != nil {
		return err
	}
	anyMDT := ""
	if mdts := d.Registry.MDTs(); len(mdts) > 0 {
		anyMDT = mdts[0].ID
	}
	log.Printf("portal on http://%s — log in as an MDT id (e.g. %q) or \"admin\", password %q",
		addr, anyMDT, d.Creds["admin"])

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)

	if importEvery > 0 {
		ticker := time.NewTicker(importEvery)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if err := d.ImportAll(); err != nil {
					log.Printf("periodic import: %v", err)
				}
			}
		}()
	}

	<-stop
	front := d.Frontend.Stats()
	log.Printf("shutting down: %d requests served, %d blocked by the release check, %d auth failures",
		front.Requests, front.Blocked, front.AuthFailures)
	if d.BrokerServer != nil {
		bs := d.BrokerServer.Stats()
		log.Printf("broker front: %d deliveries dropped, %d overflow drops, %d slow-consumer evictions, queue high-water %d, %d credit stalls, %d unhandled frames",
			bs.DroppedDeliveries, bs.OverflowDrops, bs.SlowConsumerEvictions, bs.QueueHighWater,
			bs.CreditStalls, bs.UnhandledFrames)
		if len(cfg.Server.Durable) > 0 {
			log.Printf("durable topics: %d journal appends (%d failed), %d replay deliveries, %d filtered by clearance",
				bs.DurableAppends, bs.JournalAppendErrors, bs.ReplayDeliveries, bs.ReplayFiltered)
			log.Printf("journal retention: %d acked segments compacted, %d retention deletes, %d clamped resumes",
				bs.CompactedSegments, bs.RetentionDeletes, bs.ClampedResumes)
		}
	}
	return nil
}
