// Package server is the query service tier on top of the selforg
// facade: SQL over the wire, every statement through one path (Exec in
// exec.go) — normalize → plan cache → parse → bind → run — onto one
// executor, the tenant's facade column, served as sys.P(v):
//
//   - internal/sql.Normalize lexes the statement once, lifting its
//     constants into bind values and producing the canonical
//     fingerprint — the cache key and the Result's fingerprint.
//   - internal/plancache holds bound plans in a bounded, sharded LRU
//     stamped with the catalog epoch. A plan is the physical operator
//     that executes (select | count | sum | insert | update | delete
//     over bind slots), so a warm request — read or write — is one lex
//     pass plus a map hit, and what is cached is what runs.
//   - bind checks the statement against sys.P(v) — any other table or
//     column is a CompileError — and picks the operator.
//   - run calls the facade: Column.SelectRows/Count/Sum for reads,
//     Column.Insert/Update/Delete for writes (write.go). Explain (and
//     ?explain=1) renders the same bound plan with its bind values.
//   - one hand-written encoder (wire.go) appends the compact answer,
//     rows straight from the result rope, into a pooled 32 KB buffer:
//     Content-Length up to one buffer, bounded flushes beyond it.
//
// Around the path sit an admission gate sized from the engine's
// Parallelism budget (requests beyond workers+backlog are shed with 429
// and a Retry-After hint instead of queueing without bound) and a tenant
// registry routing ?tenant= to independent facade columns (each with its
// own layout, model state and MVCC delta store) that share the plan
// cache — plans are tenant-agnostic; only execution binds a column.
//
// Handler mounts POST /sql — the one way in for reads and writes —
// next to POST /plans/flush and the observer's /metrics + /debug/*
// endpoints.
package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"

	"selforg"
	"selforg/internal/domain"
	"selforg/internal/plancache"
	"selforg/internal/sim"
	"selforg/internal/sql"
)

// Config describes one serving instance. The zero value serves a
// million-value sys.P(v) column under the facade's default options.
type Config struct {
	// Extent is the tenant columns' domain (default [0, 999_999]).
	Extent selforg.Interval
	// N is the number of generated values per tenant column (default
	// 1_000_000).
	N int
	// Seed seeds the data generator; each tenant's column derives its
	// own seed from it, so tenants hold distinct data by construction.
	Seed int64
	// Options configures every tenant column (strategy, model, shards,
	// compression, parallelism, observability).
	Options selforg.Options
	// CacheCapacity bounds the plan cache (default
	// plancache.DefaultCapacity).
	CacheCapacity int
	// Workers bounds concurrent query executions. 0 derives it from
	// Options.Parallelism, falling back to GOMAXPROCS.
	Workers int
	// Backlog is how many admitted requests may wait for a worker slot
	// beyond the workers themselves (0 = the 2×Workers default; negative
	// = no backlog at all). Requests past workers+backlog are shed with
	// 429.
	Backlog int
	// MaxRows caps the rows a SELECT returns over the wire (default
	// 1000); Count always reports the full cardinality.
	MaxRows int
	// Observer receives the tier's metrics and serves /metrics +
	// /debug/* (default selforg.DefaultObserver()).
	Observer *selforg.Observer
}

func (c Config) withDefaults() Config {
	if c.Extent == (selforg.Interval{}) {
		c.Extent = selforg.Interval{Lo: 0, Hi: 999_999}
	}
	if c.N == 0 {
		c.N = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxRows == 0 {
		c.MaxRows = 1000
	}
	if c.Workers == 0 {
		if c.Options.Parallelism > 0 {
			c.Workers = c.Options.Parallelism
		} else {
			c.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if c.Backlog == 0 {
		c.Backlog = 2 * c.Workers
	}
	if c.Observer == nil {
		c.Observer = selforg.DefaultObserver()
	}
	return c
}

// Server is one query service instance: a shared plan cache and
// admission gate over a registry of per-tenant columns. Safe for
// concurrent use.
type Server struct {
	cfg   Config
	cache *plancache.Cache
	gate  *gate

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool
}

// tenant is one isolated facade column, served as sys.P(v). All
// tenants share the plan cache.
type tenant struct {
	name string
	col  *selforg.Column
}

// New builds a Server. The default tenant's column is built lazily on
// first use, like every other tenant's.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   plancache.New(cfg.CacheCapacity),
		gate:    newGate(cfg.Workers, cfg.Backlog),
		tenants: make(map[string]*tenant),
	}
	s.cache.Instrument(cfg.Observer.Registry)
	s.gate.instrument(cfg.Observer.Registry)
	return s
}

// NewOver builds a Server whose default tenant is col — an existing
// column served as sys.P(v), under col's extent — instead of
// a generated one: cmd/soshell runs its `sql` command through here over
// the column the session built. Close closes col with the other tenants.
func NewOver(cfg Config, col *selforg.Column) *Server {
	cfg.Extent = col.Extent()
	s := New(cfg)
	s.tenants["default"] = &tenant{name: "default", col: col}
	return s
}

// tenantSeed decorrelates per-tenant data: same generator, different
// stream per name.
func (s *Server) tenantSeed(name string) int64 {
	if name == "default" {
		return s.cfg.Seed
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return s.cfg.Seed + int64(h.Sum32())
}

// Tenant returns (building on first use) the named tenant's column.
// The empty name is the "default" tenant.
func (s *Server) Tenant(name string) (*selforg.Column, error) {
	t, err := s.tenantEntry(name)
	if err != nil {
		return nil, err
	}
	return t.col, nil
}

// tenantEntry returns (building on first use) the named tenant.
func (s *Server) tenantEntry(name string) (*tenant, error) {
	if name == "" {
		name = "default"
	}
	if !validTenant(name) {
		return nil, &TenantError{Name: name}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server closed")
	}
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	opts := s.cfg.Options
	if opts.Observability.Observer == nil && !opts.Observability.Disable {
		opts.Observability.Observer = s.cfg.Observer
	}
	if opts.Durability.Dir != "" {
		// Tenants cannot share one WAL directory: each gets a
		// subdirectory keyed by its (validated) name, so a rebuilt
		// server recovers every tenant's committed writes independently.
		opts.Durability.Dir = filepath.Join(opts.Durability.Dir, name)
	}
	vals := sim.GenerateColumn(s.cfg.N,
		domain.NewRange(s.cfg.Extent.Lo, s.cfg.Extent.Hi), s.tenantSeed(name))
	col, err := selforg.New(s.cfg.Extent, vals, opts)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", name, err)
	}
	t := &tenant{name: name, col: col}
	s.tenants[name] = t
	return t, nil
}

// TenantError reports a tenant name that failed validation — a client
// mistake, mapped to 400 by the HTTP layer.
type TenantError struct{ Name string }

func (e *TenantError) Error() string { return fmt.Sprintf("invalid tenant name %q", e.Name) }

// validTenant accepts short names safe to echo and hash: letters,
// digits, '_' and '-'.
func validTenant(name string) bool {
	if len(name) == 0 || len(name) > 32 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// InvalidatePlans bumps the plan-cache epoch, orphaning every compiled
// plan. Call it when the catalog or a layout generation a plan was
// compiled against changes meaning; in-flight compiles that started
// before the bump are refused publication.
func (s *Server) InvalidatePlans() { s.cache.Invalidate() }

// CacheStats exposes the plan cache's lifetime hit/miss/eviction counts.
func (s *Server) CacheStats() (hits, misses, evictions int64) { return s.cache.Stats() }

// Close releases every tenant column (stopping each durable tenant's
// WAL committer).
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, t := range s.tenants {
		t.col.Close()
	}
	s.tenants = map[string]*tenant{}
}

// Handler mounts the full service surface:
//
//	POST /sql        SQL statement in the body, ?tenant= routing
//	POST /plans/flush administrative plan-cache invalidation
//	     /metrics, /debug/*  the observer's surface (PR 6)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sql", s.handleSQL)
	mux.HandleFunc("/plans/flush", s.handleFlush)
	mux.Handle("/", s.cfg.Observer.Handler())
	return mux
}

// isClientError classifies an Exec failure for the HTTP layer: every
// compile-side problem (lexing, parsing, unknown table or column,
// unsupported shape), every malformed tenant name, and every
// client-fault write rejection maps to 400.
func isClientError(err error) bool {
	var se *sql.SyntaxError
	var ce *CompileError
	var te *TenantError
	var we *WriteError
	return errors.As(err, &se) || errors.As(err, &ce) || errors.As(err, &te) || errors.As(err, &we)
}
