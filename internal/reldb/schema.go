package reldb

import "fmt"

// ColDef declares one column.
type ColDef struct {
	Name string
	Type ColType
	// Nullable permits NULL; key columns must not be nullable.
	Nullable bool
}

// TableDef declares a table: columns and primary key. Tables are reached by
// primary key or by full scan; there are no secondary indexes.
type TableDef struct {
	Name string
	Cols []ColDef
	Key  []int
}

// validate checks the definition's internal consistency.
func (d *TableDef) validate() error {
	if d.Name == "" {
		return fmt.Errorf("reldb: table with empty name")
	}
	if len(d.Cols) == 0 {
		return fmt.Errorf("reldb: table %s has no columns", d.Name)
	}
	seen := map[string]bool{}
	for _, c := range d.Cols {
		if c.Name == "" {
			return fmt.Errorf("reldb: table %s has an unnamed column", d.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("reldb: table %s: duplicate column %s", d.Name, c.Name)
		}
		if c.Type == 0 {
			return fmt.Errorf("reldb: table %s: column %s has no type", d.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if len(d.Key) == 0 {
		return fmt.Errorf("reldb: table %s has no primary key", d.Name)
	}
	for _, k := range d.Key {
		if k < 0 || k >= len(d.Cols) {
			return fmt.Errorf("reldb: table %s: key column %d out of range", d.Name, k)
		}
		if d.Cols[k].Nullable {
			return fmt.Errorf("reldb: table %s: key column %s must not be nullable", d.Name, d.Cols[k].Name)
		}
	}
	return nil
}

// checkRow validates a row against the definition.
func (d *TableDef) checkRow(r Row) error {
	if len(r) != len(d.Cols) {
		return fmt.Errorf("reldb: table %s: row has %d columns, want %d", d.Name, len(r), len(d.Cols))
	}
	for i, v := range r {
		c := d.Cols[i]
		if v.IsNull() {
			if !c.Nullable {
				return fmt.Errorf("reldb: table %s: column %s is NOT NULL", d.Name, c.Name)
			}
			continue
		}
		if v.Type() != c.Type {
			return fmt.Errorf("reldb: table %s: column %s has type %s, want %s",
				d.Name, c.Name, v.Type(), c.Type)
		}
	}
	return nil
}

// pkEnc computes the primary-key encoding of a row.
func (d *TableDef) pkEnc(r Row) string { return encodeVals(r.project(d.Key)) }
