package mdt

import (
	"flag"
	"strings"

	"safeweb/internal/broker"
	"safeweb/internal/journal"
)

// BindBrokerFlags registers the deployment binaries' broker flags on fs —
// the one place their names, defaults and help text are declared — bound
// to cfg's NetworkBroker, Server and Client settings. Call the returned
// function once fs is parsed: it resolves the flags whose values need
// parsing (-overflow, -durable, -journal-sync) and reports a bad one.
func BindBrokerFlags(fs *flag.FlagSet, cfg *DeployConfig) (resolve func() error) {
	fs.BoolVar(&cfg.NetworkBroker, "network-broker", false, "run units over the STOMP network broker")
	fs.IntVar(&cfg.Client.PublishWindow, "publish-window", 0,
		"receipt-confirmed publishes in flight per unit (with -network-broker; 0 = fire-and-forget)")
	overflow := fs.String("overflow", "block",
		"slow-consumer overflow policy for broker sessions (with -network-broker): block, drop-newest or disconnect")
	fs.IntVar(&cfg.Server.WriteQueueLen, "write-queue", 0,
		"per-session delivery queue length in frames (with -network-broker; 0 = default 128)")
	fs.DurationVar(&cfg.Server.WriteTimeout, "write-timeout", 0,
		"per-flush write deadline for broker sessions, which also bounds a publish waiting for credit (with -network-broker; 0 = unbounded)")
	fs.IntVar(&cfg.Client.SubscribeCredit, "subscribe-credit", 0,
		"per-subscription delivery window in messages, replenished as units complete callbacks (with -network-broker; 0 = no credit flow control)")
	durable := fs.String("durable", "",
		"comma-separated topic patterns the broker journals for replay and resume (with -network-broker; requires -journal-dir)")
	fs.StringVar(&cfg.Server.JournalDir, "journal-dir", "",
		"directory for the durable topic journals (with -durable)")
	fs.DurationVar(&cfg.Server.JournalRetentionAge, "journal-retention-age", 0,
		"delete journal segments whose newest record is older than this (with -durable; 0 = unbounded)")
	fs.Int64Var(&cfg.Server.JournalRetentionBytes, "journal-retention-bytes", 0,
		"per-topic journal byte budget, oldest segments deleted first (with -durable; 0 = unbounded)")
	journalSync := fs.String("journal-sync", "never",
		"journal fsync policy (with -durable): never, batch or always")
	return func() (err error) {
		if cfg.Server.Overflow, err = broker.ParseOverflowPolicy(*overflow); err != nil {
			return err
		}
		if cfg.Server.JournalSync, err = journal.ParseSyncPolicy(*journalSync); err != nil {
			return err
		}
		if *durable != "" {
			cfg.Server.Durable = strings.Split(*durable, ",")
		}
		return nil
	}
}
