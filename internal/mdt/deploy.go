package mdt

import (
	"fmt"
	"strings"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/core"
	"safeweb/internal/maindb"
	"safeweb/internal/webfront"
)

// SchedulerName is the principal that publishes control events (the
// deployment's cron-equivalent). It holds no privileges: control events
// are unlabelled.
const SchedulerName = "mdt-scheduler"

// DeployConfig configures a full MDT portal deployment.
type DeployConfig struct {
	// Registry configures the synthetic main database.
	Registry maindb.Config
	// Password is the password provisioned for every portal account;
	// empty means "mdt-password".
	Password string
	// Faults enables the §5.2 injected vulnerabilities.
	Faults Faults
	// NetworkBroker, Server and Client are core.Config's broker settings,
	// passed through whole: units reach the broker over its STOMP front,
	// configured by Server (slow-consumer protection, durable topics and
	// their journals), each over a bus connection built from the Client
	// template (publish window, subscription credit). BindBrokerFlags
	// binds them to the deployment binaries' command-line flags.
	NetworkBroker bool
	Server        broker.ServerConfig
	Client        broker.ClientConfig
	// DisableTracking, AuthWork and OnRequest are passed through to
	// core.Config's frontend settings.
	DisableTracking bool
	AuthWork        int
	OnRequest       func(webfront.PhaseTimes)
	// Logf logs; nil is quiet.
	Logf func(format string, args ...any)
}

// Deployment is a running MDT portal: the SafeWeb middleware plus the
// application units, routes, accounts and registry.
type Deployment struct {
	// Middleware is the underlying SafeWeb assembly.
	*core.Middleware
	// Registry is the synthetic main database.
	Registry *maindb.DB
	// WebApp is the portal's web tier.
	WebApp *WebApp
	// Creds maps provisioned usernames to passwords.
	Creds map[string]string
}

// Deploy assembles and starts an MDT portal deployment. The caller owns
// the returned deployment and must Stop it.
func Deploy(cfg DeployConfig) (*Deployment, error) {
	if cfg.Password == "" {
		cfg.Password = "mdt-password"
	}
	registry := maindb.Generate(cfg.Registry)
	policy := BuildPolicy(registry)

	mw, err := core.New(core.Config{
		Policy:          policy,
		NetworkBroker:   cfg.NetworkBroker,
		Server:          cfg.Server,
		Client:          cfg.Client,
		DisableTracking: cfg.DisableTracking,
		AuthWork:        cfg.AuthWork,
		OnRequest:       cfg.OnRequest,
		Logf:            cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("mdt: deploy: %w", err)
	}
	RegisterViews(mw.AppDB)
	RegisterViews(mw.DMZDB)

	// Units: aggregator first so it is subscribed before any producer
	// output, then storage, then the producer.
	if err := mw.AddUnit(&Aggregator{Faults: cfg.Faults}); err != nil {
		mw.Stop()
		return nil, fmt.Errorf("mdt: deploy aggregator: %w", err)
	}
	if err := mw.AddUnit(&Storage{Store: mw.AppDB}); err != nil {
		mw.Stop()
		return nil, fmt.Errorf("mdt: deploy storage: %w", err)
	}
	if err := mw.AddUnit(&Producer{DB: registry}); err != nil {
		mw.Stop()
		return nil, fmt.Errorf("mdt: deploy producer: %w", err)
	}

	creds, err := ProvisionUsers(mw.WebDB, registry.MDTs(), cfg.Password)
	if err != nil {
		mw.Stop()
		return nil, fmt.Errorf("mdt: deploy users: %w", err)
	}

	webApp, err := NewWebApp(WebAppConfig{
		Frontend: mw.Frontend,
		Store:    mw.DMZDB,
		WebDB:    mw.WebDB,
		MDTs:     registry.MDTs(),
		Faults:   cfg.Faults,
	})
	if err != nil {
		mw.Stop()
		return nil, fmt.Errorf("mdt: deploy webapp: %w", err)
	}
	// Cookie sessions avoid re-hashing credentials on every request; the
	// release check is identical either way.
	mw.Frontend.EnableSessionAuth(12 * time.Hour)

	mw.Start()
	return &Deployment{
		Middleware: mw,
		Registry:   registry,
		WebApp:     webApp,
		Creds:      creds,
	}, nil
}

// ImportAll triggers a full import of the registry through the backend
// pipeline, computes regional aggregates, and waits until the DMZ replica
// reflects everything.
func (d *Deployment) ImportAll() error {
	if err := d.PublishControl(SchedulerName, TopicImport, nil); err != nil {
		return fmt.Errorf("mdt: import trigger: %w", err)
	}
	d.Sync()

	// Regional aggregates: one control event per region listing its MDTs,
	// so the aggregator callback only ever mixes labels of one region.
	byRegion := make(map[string][]string)
	for _, m := range d.Registry.MDTs() {
		byRegion[m.Region] = append(byRegion[m.Region], m.ID)
	}
	for region, mdts := range byRegion {
		err := d.PublishControl(SchedulerName, TopicMetrics, map[string]string{
			"region": region,
			"mdts":   strings.Join(mdts, ","),
		})
		if err != nil {
			return fmt.Errorf("mdt: metrics trigger %s: %w", region, err)
		}
	}
	d.Sync()
	return nil
}
