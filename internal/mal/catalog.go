package mal

import (
	"fmt"

	"selforg/internal/bat"
)

// Catalog resolves sql.bind calls: the SQL compiler "maps the relational
// tables into collections of bats, whose head column is an oid" (§2).
// Slot 0 binds the base column, slots 1 and 2 the insert and update delta
// bats; sql.bind_dbat binds the deletion bat.
type Catalog interface {
	Bind(schema, table, column string, slot int) (*bat.BAT, error)
	BindDBat(schema, table string, slot int) (*bat.BAT, error)
	// SegmentedName returns the bpm.Store key for a column organized as
	// value-ranged segments, or "" if the column is not segmented. The
	// segment optimizer uses this to find rewrite candidates (§3.1).
	SegmentedName(schema, table, column string) string
}

// Column is one stored column with its delta bats.
type Column struct {
	Base    *bat.BAT
	Inserts *bat.BAT
	Updates *bat.BAT
	// Segmented is the bpm.Store name of the value-based organization of
	// this column, when one exists.
	Segmented string
}

// Table groups columns plus the deletion bat.
type Table struct {
	Schema, Name string
	Cols         map[string]*Column
	Deletes      *bat.BAT // [oid, oid] of deleted rows
}

// MemCatalog is the in-memory Catalog used by tests, examples and
// cmd/malrun.
type MemCatalog struct {
	tables map[string]*Table
}

// NewMemCatalog returns an empty catalog.
func NewMemCatalog() *MemCatalog {
	return &MemCatalog{tables: make(map[string]*Table)}
}

// AddTable registers a table; column delta bats are created empty when
// nil.
func (c *MemCatalog) AddTable(t *Table) {
	for _, col := range t.Cols {
		if col.Inserts == nil {
			col.Inserts = bat.Empty(bat.KOid, col.Base.TailKind())
		}
		if col.Updates == nil {
			col.Updates = bat.Empty(bat.KOid, col.Base.TailKind())
		}
	}
	if t.Deletes == nil {
		t.Deletes = bat.Empty(bat.KOid, bat.KOid)
	}
	c.tables[t.Schema+"."+t.Name] = t
}

func (c *MemCatalog) table(schema, table string) (*Table, error) {
	t, ok := c.tables[schema+"."+table]
	if !ok {
		return nil, fmt.Errorf("mal: unknown table %s.%s", schema, table)
	}
	return t, nil
}

// Bind implements Catalog.
func (c *MemCatalog) Bind(schema, table, column string, slot int) (*bat.BAT, error) {
	t, err := c.table(schema, table)
	if err != nil {
		return nil, err
	}
	col, ok := t.Cols[column]
	if !ok {
		return nil, fmt.Errorf("mal: unknown column %s.%s.%s", schema, table, column)
	}
	switch slot {
	case 0:
		return col.Base, nil
	case 1:
		return col.Inserts, nil
	case 2:
		return col.Updates, nil
	default:
		return nil, fmt.Errorf("mal: bind slot %d out of range", slot)
	}
}

// BindDBat implements Catalog.
func (c *MemCatalog) BindDBat(schema, table string, slot int) (*bat.BAT, error) {
	t, err := c.table(schema, table)
	if err != nil {
		return nil, err
	}
	_ = slot // MonetDB distinguishes persistent/transient deletes; we keep one.
	return t.Deletes, nil
}

// --- delta writes ---
//
// The methods below give the catalog the write surface of MonetDB's SQL
// runtime: inserts land in the per-column insert bats (slot 1), updates
// upsert into the update bats (slot 2) and deletes append to the
// deletion bat — exactly the delta bats the generated Figure-1 plans
// merge with kunion/kdifference. After a write, re-running a compiled
// plan reflects it with no recompilation: the plan binds the same bats.
// MemCatalog is not safe for concurrent mutation; serialize writers.

// findRow returns the index of the first row of b whose head is oid, or
// -1.
func findRow(b *bat.BAT, oid uint64) int {
	want := bat.Oid(oid)
	for i := 0; i < b.Len(); i++ {
		if h, _ := b.Row(i); h == want {
			return i
		}
	}
	return -1
}

// withoutRow returns b minus every row whose head is oid (b untouched).
func withoutRow(b *bat.BAT, oid uint64) *bat.BAT {
	out := bat.Empty(b.HeadKind(), b.TailKind())
	want := bat.Oid(oid)
	for i := 0; i < b.Len(); i++ {
		h, t := b.Row(i)
		if h != want {
			out.AppendRow(h, t)
		}
	}
	return out
}

// nextOID returns the first unused row oid of t (base and insert bats
// hold oid heads).
func (t *Table) nextOID() uint64 {
	var next uint64
	bump := func(b *bat.BAT) {
		for i := 0; i < b.Len(); i++ {
			h, _ := b.Row(i)
			if o := h.AsOid() + 1; o > next {
				next = o
			}
		}
	}
	for _, col := range t.Cols {
		bump(col.Base)
		bump(col.Inserts)
	}
	return next
}

// InsertRow appends one row: vals must supply a tail value for every
// column of the table. It returns the assigned oid.
func (c *MemCatalog) InsertRow(schema, table string, vals map[string]bat.Value) (uint64, error) {
	t, err := c.table(schema, table)
	if err != nil {
		return 0, err
	}
	for name, col := range t.Cols {
		v, ok := vals[name]
		if !ok {
			return 0, fmt.Errorf("mal: insert into %s.%s missing column %s", schema, table, name)
		}
		// Validate the kind before any append: a mid-append failure would
		// leave the per-column insert bats with diverging row sets.
		if v.K != col.Base.TailKind() {
			return 0, fmt.Errorf("mal: insert into %s.%s: column %s wants %v, got %v",
				schema, table, name, col.Base.TailKind(), v.K)
		}
	}
	for name := range vals {
		if _, ok := t.Cols[name]; !ok {
			return 0, fmt.Errorf("mal: insert into %s.%s: unknown column %s", schema, table, name)
		}
	}
	oid := t.nextOID()
	for name, col := range t.Cols {
		col.Inserts.AppendRow(bat.Oid(oid), vals[name])
	}
	return oid, nil
}

// UpdateRow records a new tail value for one column of row oid. The
// update bat keeps at most one entry per oid (kunion would otherwise
// duplicate the row), so repeated updates replace each other.
func (c *MemCatalog) UpdateRow(schema, table string, oid uint64, column string, v bat.Value) error {
	t, err := c.table(schema, table)
	if err != nil {
		return err
	}
	col, ok := t.Cols[column]
	if !ok {
		return fmt.Errorf("mal: unknown column %s.%s.%s", schema, table, column)
	}
	if v.K != col.Base.TailKind() {
		return fmt.Errorf("mal: update of %s.%s.%s wants %v, got %v",
			schema, table, column, col.Base.TailKind(), v.K)
	}
	if findRow(t.Deletes, oid) >= 0 {
		return fmt.Errorf("mal: update of deleted row %d", oid)
	}
	if findRow(col.Base, oid) < 0 && findRow(col.Inserts, oid) < 0 {
		return fmt.Errorf("mal: update of unknown row %d", oid)
	}
	if findRow(col.Updates, oid) >= 0 {
		col.Updates = withoutRow(col.Updates, oid)
	}
	col.Updates.AppendRow(bat.Oid(oid), v)
	return nil
}

// DeleteRow masks row oid out of every plan via the deletion bat.
func (c *MemCatalog) DeleteRow(schema, table string, oid uint64) error {
	t, err := c.table(schema, table)
	if err != nil {
		return err
	}
	if findRow(t.Deletes, oid) >= 0 {
		return nil // already deleted; masking is idempotent
	}
	exists := false
	for _, col := range t.Cols {
		if findRow(col.Base, oid) >= 0 || findRow(col.Inserts, oid) >= 0 {
			exists = true
			break
		}
	}
	if !exists {
		return fmt.Errorf("mal: delete of unknown row %d", oid)
	}
	t.Deletes.AppendRow(bat.Oid(oid), bat.Oid(oid))
	return nil
}

// SegmentedName implements Catalog.
func (c *MemCatalog) SegmentedName(schema, table, column string) string {
	t, err := c.table(schema, table)
	if err != nil {
		return ""
	}
	col, ok := t.Cols[column]
	if !ok {
		return ""
	}
	return col.Segmented
}
