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
		return d.errCols(len(r))
	}
	for i, v := range r {
		if err := d.checkValue(i, v); err != nil {
			return err
		}
	}
	return nil
}

// checkEncoded validates a stored row, one the record decoder checked for
// structure, against the definition, in place.
func (d *TableDef) checkEncoded(enc string) error {
	n, off := rowCols(enc)
	if n != len(d.Cols) {
		return d.errCols(n)
	}
	for i := range d.Cols {
		var v V
		v, off = valueAt(enc, off)
		if err := d.checkValue(i, v); err != nil {
			return err
		}
	}
	return nil
}

func (d *TableDef) errCols(n int) error {
	return fmt.Errorf("reldb: table %s: row has %d columns, want %d", d.Name, n, len(d.Cols))
}

// checkValue validates the value of column i.
func (d *TableDef) checkValue(i int, v V) error {
	c := d.Cols[i]
	if v.IsNull() {
		if !c.Nullable {
			return fmt.Errorf("reldb: table %s: column %s is NOT NULL", d.Name, c.Name)
		}
		return nil
	}
	if v.Type() != c.Type {
		return fmt.Errorf("reldb: table %s: column %s has type %s, want %s",
			d.Name, c.Name, v.Type(), c.Type)
	}
	return nil
}

// keyOf returns the primary-key encoding of a stored row: the encodings of
// the key's values, in key order. When the key is the table's leading
// columns in order, as every central table's is, that is a substring of
// the row and costs no allocation; any other key is built from the
// values.
func (d *TableDef) keyOf(enc string) string {
	_, start := rowCols(enc)
	end := start
	leading := true
	for i, k := range d.Key {
		if k != i {
			leading = false
			break
		}
		_, end = valueAt(enc, end)
	}
	if leading {
		return enc[start:end]
	}
	var key []byte
	for _, k := range d.Key {
		off := start
		for j := 0; j < k; j++ {
			_, off = valueAt(enc, off)
		}
		_, end := valueAt(enc, off)
		key = append(key, enc[off:end]...)
	}
	return string(key)
}
