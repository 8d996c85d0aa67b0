// Command mdtportal runs the paper's full case study (§5.1): the MDT web
// portal over a synthetic cancer registry, deployed in the Fig. 4
// topology — producer → broker → aggregator → storage → Intranet appdb →
// push replication → read-only DMZ appdb → web frontend.
//
// Run it with:
//
//	go run ./examples/mdtportal [-patients 200] [-serve]
//
// Without -serve it performs a scripted walkthrough: imports the registry,
// shows the labelled records, queries the portal as several users and
// demonstrates policy P1 (own records visible, foreign records blocked,
// same-region aggregates visible, cross-region blocked). With -serve it
// keeps the HTTP server running and prints credentials.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"

	"safeweb/internal/maindb"
	"safeweb/internal/mdt"
)

func main() {
	cfg := mdt.DeployConfig{Registry: maindb.Config{Seed: 2026}}
	flag.IntVar(&cfg.Registry.Patients, "patients", 200, "number of synthetic patients")
	serve := flag.Bool("serve", false, "keep serving after the walkthrough")
	resolve := mdt.BindBrokerFlags(flag.CommandLine, &cfg)
	flag.Parse()

	if err := resolve(); err != nil {
		fmt.Fprintln(os.Stderr, "mdtportal:", err)
		os.Exit(2)
	}
	if err := run(cfg, *serve); err != nil {
		fmt.Fprintln(os.Stderr, "mdtportal:", err)
		os.Exit(1)
	}
}

func run(cfg mdt.DeployConfig, serve bool) error {
	fmt.Printf("deploying MDT portal (%d patients, network broker: %v)\n", cfg.Registry.Patients, cfg.NetworkBroker)
	d, err := mdt.Deploy(cfg)
	if err != nil {
		return err
	}
	defer d.Stop()

	if err := d.ImportAll(); err != nil {
		return err
	}
	fmt.Printf("import complete: %d documents in the Intranet appdb, %d replicated to the DMZ\n",
		d.AppDB.Len(), d.DMZDB.Len())
	fmt.Printf("broker: %+v\n", d.Broker.Stats())

	addr, err := d.ServeHTTP("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println("portal listening on http://" + addr)

	// Pick two MDTs from different regions for the walkthrough.
	var a, b maindb.MDT
	for _, m := range d.Registry.MDTs() {
		if docs, _ := d.DMZDB.Query(mdt.ViewRecordsByMDT, m.ID); len(docs) == 0 {
			continue
		}
		switch {
		case a.ID == "":
			a = m
		case b.ID == "" && m.Region != a.Region:
			b = m
		}
	}
	if a.ID == "" || b.ID == "" {
		return fmt.Errorf("registry too small for the walkthrough; raise -patients")
	}

	show := func(desc, path, user string) error {
		status, body, err := get("http://"+addr+path, user, d.Creds[user])
		if err != nil {
			return err
		}
		summary := body
		var records []json.RawMessage
		if json.Unmarshal([]byte(body), &records) == nil {
			summary = fmt.Sprintf("%d records", len(records))
		} else if len(body) > 60 {
			summary = body[:60] + "..."
		}
		fmt.Printf("  %-52s as %-8s -> HTTP %d (%s)\n", desc, user, status, summary)
		return nil
	}

	fmt.Println("\npolicy P1 walkthrough:")
	steps := []struct{ desc, path, user string }{
		{"own records (F1)", "/records/" + a.ID, a.ID},
		{"own front page (F2)", "/", a.ID},
		{"own metrics (F2)", "/metrics/" + a.ID, a.ID},
		{"region comparison (F3)", "/compare/" + a.Region, a.ID},
		{"regional aggregate (F3)", "/regional/" + a.Region, a.ID},
		{"ANOTHER MDT's records — must be denied", "/records/" + b.ID, a.ID},
		{"other region's comparison — must be denied", "/compare/" + b.Region, a.ID},
		{"other region's regional aggregate — allowed by P1", "/regional/" + b.Region, a.ID},
		{"everything, as the admin", "/records/" + b.ID, "admin"},
	}
	for _, s := range steps {
		if err := show(s.desc, s.path, s.user); err != nil {
			return err
		}
	}

	front := d.Frontend.Stats()
	fmt.Printf("\nfrontend: %d requests served, %d blocked by the release check\n",
		front.Requests, front.Blocked)
	for _, v := range d.Frontend.Violations() {
		fmt.Printf("  blocked: user %s on %s (missing clearance for %s)\n", v.Username, v.Path, v.Missing)
	}

	if serve {
		fmt.Printf("\nserving; log in with any MDT id (e.g. %s) and password %q. Ctrl-C to stop.\n",
			a.ID, d.Creds[a.ID])
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
	return nil
}

func get(url, user, pass string) (int, string, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	req.SetBasicAuth(user, pass)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}
