package mdt

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/journal"
)

// TestBindBrokerFlagsCompat pins the command-line contract both
// deployment binaries share: the eleven broker flag names and their
// defaults, that the defaults resolve to the zero configuration, and that
// every flag lands in the field it names.
func TestBindBrokerFlagsCompat(t *testing.T) {
	bind := func() (*flag.FlagSet, *DeployConfig, func() error) {
		fs := flag.NewFlagSet("portal", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg := new(DeployConfig)
		return fs, cfg, BindBrokerFlags(fs, cfg)
	}

	fs, cfg, resolve := bind()
	got := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"network-broker":          "false",
		"publish-window":          "0",
		"overflow":                "block",
		"write-queue":             "0",
		"write-timeout":           "0s",
		"subscribe-credit":        "0",
		"durable":                 "",
		"journal-dir":             "",
		"journal-retention-age":   "0s",
		"journal-retention-bytes": "0",
		"journal-sync":            "never",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags and defaults = %v, want %v", got, want)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := resolve(); err != nil {
		t.Fatalf("resolve defaults: %v", err)
	}
	if !reflect.DeepEqual(*cfg, DeployConfig{}) {
		t.Errorf("default flags resolve to %+v, want the zero DeployConfig", *cfg)
	}

	fs, cfg, resolve = bind()
	err := fs.Parse([]string{
		"-network-broker", "-publish-window", "16", "-overflow", "drop-newest",
		"-write-queue", "64", "-write-timeout", "2s", "-subscribe-credit", "8",
		"-durable", "/a,/b/*", "-journal-dir", "/j", "-journal-retention-age", "1h",
		"-journal-retention-bytes", "4096", "-journal-sync", "batch",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resolve(); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	wantCfg := DeployConfig{
		NetworkBroker: true,
		Server: broker.ServerConfig{
			Overflow:              broker.OverflowDropNewest,
			WriteQueueLen:         64,
			WriteTimeout:          2 * time.Second,
			Durable:               []string{"/a", "/b/*"},
			JournalDir:            "/j",
			JournalRetentionAge:   time.Hour,
			JournalRetentionBytes: 4096,
			JournalSync:           journal.SyncBatch,
		},
		Client: broker.ClientConfig{PublishWindow: 16, SubscribeCredit: 8},
	}
	if !reflect.DeepEqual(*cfg, wantCfg) {
		t.Errorf("flags resolve to %+v, want %+v", *cfg, wantCfg)
	}

	for _, bad := range [][]string{{"-overflow", "sometimes"}, {"-journal-sync", "often"}} {
		fs, _, resolve := bind()
		if err := fs.Parse(bad); err != nil {
			t.Fatal(err)
		}
		if err := resolve(); err == nil {
			t.Errorf("%v resolved without error", bad)
		}
	}
}
