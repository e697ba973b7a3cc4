// Package driver is GhostDB's database/sql driver: it lets ordinary Go
// applications talk to a GhostDB instance — hidden columns, smart USB
// device simulator and all — through the standard library's database/sql
// interface, without touching the bespoke ghostdb API.
//
// Importing the package registers the driver under the name "ghostdb":
//
//	import (
//		"database/sql"
//
//		_ "github.com/ghostdb/ghostdb/driver"
//	)
//
//	db, err := sql.Open("ghostdb", "ghostdb://?usb=high&fpr=0.01")
//	_, err = db.Exec(`CREATE TABLE Visit (
//		VisID INTEGER PRIMARY KEY,
//		Date DATE,
//		Purpose CHAR(100) HIDDEN)`)
//
// # One engine per sql.DB
//
// Every sql.DB opened through this driver owns exactly one GhostDB
// engine (one simulated smart USB device plus one visible store); the
// connections database/sql pools are lightweight sessions into that
// shared engine. Host-side work (parsing, planning) runs concurrently
// across sessions, while device execution serializes on the engine's
// device gate — the same discipline a hardware token imposes on its USB
// command stream. Closing the sql.DB closes the engine.
//
// # Lifecycle
//
// GhostDB is bulk-loaded: DDL and INSERTs (via Exec) stage data, and the
// first query (or first DML) finalizes the load, building the hidden
// store and device indexes in a secure setting. After that the base
// column files are write-once, but the database stays live: INSERT,
// UPDATE and DELETE land in a RAM delta on the device (Exec reports real
// RowsAffected), queries merge the delta transparently, and CHECKPOINT
// (or the deltalimit DSN knob) merges it into fresh flash segments,
// renumbering identifiers densely. DDL after the load is rejected.
//
// # Prepared statements and the plan cache
//
// Statements may use '?' placeholders, bound positionally from the
// database/sql argument list — in SELECT predicates and in INSERT
// values alike. A prepared SELECT compiles once (parse, bind, plan
// enumeration, optimizer choice) and afterwards only binds fresh
// parameter values and runs; the compilation lives in a plan cache
// shared by every connection of the sql.DB, so even unprepared Query
// calls reuse it when the same statement shape repeats. The cache is
// tuned (or disabled) with the plancache DSN parameter.
//
// # DSN
//
// The data source name selects the simulated hardware and engine
// options:
//
//	ghostdb://?profile=smartusb2007&usb=high&fpr=0.01&capture=full&deviceindex=Doctor.Country
//
// See ParseDSN for the full parameter list. The empty DSN is valid and
// means "paper hardware, all defaults".
package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"sync"

	"github.com/ghostdb/ghostdb/internal/core"
)

func init() {
	sql.Register("ghostdb", &Driver{})
}

// Driver implements database/sql/driver.Driver and DriverContext.
type Driver struct{}

var (
	_ sqldriver.Driver        = (*Driver)(nil)
	_ sqldriver.DriverContext = (*Driver)(nil)
)

// Open opens a new connection. database/sql prefers OpenConnector; Open
// exists for direct driver use and creates a standalone engine.
func (d *Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once and returns the connector that owns
// this sql.DB's single shared GhostDB engine. A DSN that does not parse
// — e.g. a bad fault plan — fails here, not at first Connect.
func (d *Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	cfg, err := ParseDSN(dsn)
	if err != nil {
		return nil, err
	}
	return &Connector{drv: d, cfg: cfg}, nil
}

// OpenEngine parses dsn and opens the GhostDB engine it describes,
// bypassing database/sql: the caller owns the returned engine and its
// sessions directly. This is the entry point for front-ends such as
// cmd/ghostdb-server that multiplex many remote clients onto one
// engine's session pool.
func OpenEngine(dsn string) (*core.DB, error) {
	cfg, err := ParseDSN(dsn)
	if err != nil {
		return nil, err
	}
	return cfg.open()
}

// Connector creates sessions into one lazily-opened GhostDB engine. It
// implements driver.Connector and io.Closer (database/sql calls Close
// when the sql.DB is closed, shutting the engine down).
type Connector struct {
	drv *Driver
	cfg *Config

	mu     sync.Mutex
	opened bool
	db     *core.DB
	err    error
}

var _ sqldriver.Connector = (*Connector)(nil)

// engine opens the shared GhostDB instance on first use.
func (c *Connector) engine() (*core.DB, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.opened {
		c.opened = true
		c.db, c.err = c.cfg.open()
	}
	return c.db, c.err
}

// Connect opens one pooled connection: a session on the shared engine.
func (c *Connector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db, err := c.engine()
	if err != nil {
		return nil, err
	}
	sess, err := db.NewSession()
	if err != nil {
		return nil, err
	}
	return &Conn{sess: sess}, nil
}

// Driver reports the connector's driver.
func (c *Connector) Driver() sqldriver.Driver { return c.drv }

// Close shuts the shared engine down; in-flight queries finish first.
// Closing a sql.DB that never connected is a no-op: the engine is not
// opened just to be closed.
func (c *Connector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.opened || c.db == nil {
		return nil
	}
	return c.db.Close()
}
