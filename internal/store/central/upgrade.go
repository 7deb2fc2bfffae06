package central

import (
	"fmt"
	"slices"

	"orchestra/internal/reldb"
)

// upgradeLayout4 rewrites a layout-4 directory as layout 5 inside tx, the
// commit initTables opened, which has already created the txns and
// decisions tables. Layout 4 split the publish log into n epoch-shards,
// n recorded in the meta row table_shards: epoch e's rows lived in
// epochs_k, txns_k and decisions_k with k = e mod n (table names carry k
// in two digits). Every txns_k row is copied into txns and every
// decisions_k row into decisions as it is: the keys, ord and (peer,
// first_dseq), are unique across shards, so Insert refusing a duplicate
// means a corrupt directory, never a row to overwrite. The epochs_k rows
// are not copied: the release that wrote layout 4 committed each epoch's
// row with its txns row, so loadCaches derives the same finished epochs
// from txns. Then every shard table and table_shards go, and layout
// becomes 5. An error rolls the whole commit back and leaves the
// directory at layout 4.
func (s *Store) upgradeLayout4(tx *reldb.Tx) error {
	r, ok, err := tx.Get(s.metaTab, reldb.Str("table_shards"))
	if err != nil {
		return err
	}
	if !ok || r[1].I() < 1 {
		return fmt.Errorf("central: layout-4 directory records no valid table_shards count")
	}
	for k := range int(r[1].I()) {
		if err := moveRows(tx, fmt.Sprintf("%stxns_%02d", s.ns, k), s.txnsTab); err != nil {
			return err
		}
		if err := moveRows(tx, fmt.Sprintf("%sdecisions_%02d", s.ns, k), s.decisionsTab); err != nil {
			return err
		}
		if err := tx.DropTable(fmt.Sprintf("%sepochs_%02d", s.ns, k)); err != nil {
			return fmt.Errorf("central: upgrading layout 4: %w", err)
		}
	}
	if _, err := tx.Delete(s.metaTab, reldb.Str("table_shards")); err != nil {
		return err
	}
	return tx.Upsert(s.metaTab, reldb.Row{reldb.Str("layout"), reldb.Int(layoutVersion)})
}

// moveRows inserts every row of table from into table to, then drops from.
func moveRows(tx *reldb.Tx, from, to string) error {
	var rows []reldb.Row
	if err := tx.Scan(from, func(r reldb.Row) bool {
		rows = append(rows, slices.Clone(r))
		return true
	}); err != nil {
		return fmt.Errorf("central: upgrading layout 4: %w", err)
	}
	for _, r := range rows {
		if err := tx.Insert(to, r); err != nil {
			return fmt.Errorf("central: upgrading layout 4: %s into %s: %w", from, to, err)
		}
	}
	if err := tx.DropTable(from); err != nil {
		return fmt.Errorf("central: upgrading layout 4: %w", err)
	}
	return nil
}
