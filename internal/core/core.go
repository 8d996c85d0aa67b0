// Package core assembles the SafeWeb middleware: the event-processing
// backend (broker + engine + application database), the one-way
// replication path, and the web frontend, wired in the topology of the
// paper's Fig. 4 deployment:
//
//	main DB → producer → [broker] → aggregator → storage → Intranet appdb
//	Intranet appdb --push replication--> DMZ appdb (read-only)
//	DMZ appdb → web frontend → users
//
// Data flows strictly left to right across the Intranet/DMZ boundary
// (security requirement S1); labels flow with the data end-to-end
// (requirement S2).
package core

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/docstore"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/webdb"
	"safeweb/internal/webfront"
)

// replicationInterval is the Intranet→DMZ push period.
const replicationInterval = 50 * time.Millisecond

// Config configures a Middleware.
type Config struct {
	// Policy is the unit data-flow policy. Required.
	Policy *label.Policy
	// NetworkBroker runs the broker behind its STOMP network front on a
	// loopback port, with units connecting as STOMP clients — the paper's
	// deployment shape. False wires units to the broker in-process, which
	// is the fast path for tests and benchmarks.
	NetworkBroker bool
	// Server, with NetworkBroker, configures the broker's STOMP front —
	// overflow policy, queue bounds, write deadline, durable topics and
	// their journals: every broker.ServerConfig field, declared there and
	// nowhere else. A nil Server.Logf falls back to Logf.
	Server broker.ServerConfig
	// Client, with NetworkBroker, is the template for every unit's bus
	// connection (PublishWindow, SubscribeCredit, ...; see
	// broker.ClientConfig). Login and OnError are filled in per unit.
	Client broker.ClientConfig
	// DisableTracking turns off frontend taint tracking (baseline mode).
	DisableTracking bool
	// AuthWork is the frontend credential-hashing work factor.
	AuthWork int
	// OnRequest observes frontend phase timings.
	OnRequest func(webfront.PhaseTimes)
	// Logf logs; nil is quiet.
	Logf func(format string, args ...any)
}

// Middleware is a running SafeWeb deployment.
type Middleware struct {
	cfg Config

	// Broker is the IFC-aware event broker.
	Broker *broker.Broker
	// BrokerServer is the STOMP front when NetworkBroker is set.
	BrokerServer *broker.Server
	// Engine hosts the processing units.
	Engine *engine.Engine
	// AppDB is the Intranet application database instance.
	AppDB *docstore.Store
	// DMZDB is the read-only DMZ replica the frontend reads.
	DMZDB *docstore.Store
	// Replicator pushes AppDB to DMZDB.
	Replicator *docstore.Replicator
	// WebDB is the frontend's local database.
	WebDB *webdb.DB
	// Frontend is the SafeWeb web application host.
	Frontend *webfront.App

	httpServer *http.Server
	httpAddr   string
}

// New assembles a Middleware. Units and web routes are added by the
// application (see package mdt) before Start.
func New(cfg Config) (*Middleware, error) {
	if cfg.Policy == nil {
		return nil, errors.New("core: Config.Policy is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	m := &Middleware{cfg: cfg}
	m.Broker = broker.New(cfg.Policy)

	var busFactory engine.BusFactory
	if cfg.NetworkBroker {
		if cfg.Server.Logf == nil {
			cfg.Server.Logf = cfg.Logf
		}
		srv, err := broker.NewServer("127.0.0.1:0", m.Broker, cfg.Server)
		if err != nil {
			return nil, fmt.Errorf("core: broker server: %w", err)
		}
		m.BrokerServer = srv
		busFactory = func(principal string) (broker.Bus, error) {
			bcfg := cfg.Client
			bcfg.Login = principal
			bcfg.OnError = func(err error) { cfg.Logf("core: bus %s: %v", principal, err) }
			return broker.DialBus(srv.Addr(), bcfg)
		}
	} else {
		busFactory = func(principal string) (broker.Bus, error) {
			return m.Broker.Endpoint(principal), nil
		}
	}

	eng, err := engine.New(engine.Config{
		Policy: cfg.Policy,
		Bus:    busFactory,
		Logf:   cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("core: engine: %w", err)
	}
	m.Engine = eng

	m.AppDB = docstore.New("app-intranet", docstore.Options{})
	m.DMZDB = docstore.New("app-dmz", docstore.Options{ReadOnly: true})
	m.Replicator = docstore.NewReplicator(m.AppDB, m.DMZDB, replicationInterval, cfg.Logf)

	m.WebDB = webdb.New()
	front, err := webfront.New(webfront.Config{
		WebDB:           m.WebDB,
		DisableTracking: cfg.DisableTracking,
		AuthWork:        cfg.AuthWork,
		OnRequest:       cfg.OnRequest,
		Logf:            cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("core: frontend: %w", err)
	}
	m.Frontend = front
	return m, nil
}

// AddUnit adds a processing unit to the engine.
func (m *Middleware) AddUnit(u engine.Unit) error { return m.Engine.AddUnit(u) }

// Start launches replication. Units begin processing as soon as they are
// added; Start completes the pipeline to the DMZ.
func (m *Middleware) Start() {
	m.Replicator.Start()
}

// PublishControl publishes a control event (import/metrics triggers) as
// the named principal.
func (m *Middleware) PublishControl(principal, topic string, attrs map[string]string) error {
	return m.Broker.Publish(principal, event.New(topic, attrs))
}

// Sync drains the engine and performs one replication push, leaving the
// DMZ replica consistent with all processing so far. Tests, benchmarks
// and the import CLI use it; production deployments just let the
// replicator tick.
func (m *Middleware) Sync() {
	m.Engine.Drain()
	m.Replicator.Push()
}

// ServeHTTP starts the frontend HTTP server on addr (port 0 picks a free
// port) and returns the bound address.
func (m *Middleware) ServeHTTP(addr string) (string, error) {
	if m.httpServer != nil {
		return m.httpAddr, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("core: listen: %w", err)
	}
	m.httpServer = &http.Server{
		Handler:           m.Frontend,
		ReadHeaderTimeout: 10 * time.Second,
	}
	m.httpAddr = ln.Addr().String()
	go func() {
		if err := m.httpServer.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			m.cfg.Logf("core: http server: %v", err)
		}
	}()
	return m.httpAddr, nil
}

// Stop tears the deployment down in dependency order: engine (stops unit
// inflow), replicator (final push), HTTP server, broker.
func (m *Middleware) Stop() {
	m.Engine.Stop()
	m.Replicator.Stop()
	if m.httpServer != nil {
		_ = m.httpServer.Close()
		m.httpServer = nil
	}
	if m.BrokerServer != nil {
		_ = m.BrokerServer.Close()
	}
	m.Broker.Close()
}
