// Command orchestra-store hosts the centralized update store (§5.2.1) as a
// TCP server so that orchestra-peer processes can form a confederation
// across machines. The store is durable: epochs, transactions, decisions,
// and the retained engine-state snapshot survive restarts via the embedded
// relational engine's WAL.
//
// With -snapshot-every the store periodically snapshots its global engine
// state at a stable-epoch boundary, which bounds peer catch-up (a crashed
// or new-machine peer rebuilds from the snapshot plus the log tail, in two
// round trips); adding -compact-keep then reclaims the publish log behind
// the snapshot, subject to the safety invariants of docs/RECOVERY.md.
//
// Usage:
//
//	orchestra-store -listen :7400 -dir /var/lib/orchestra -schema swissprot \
//	    -snapshot-every 64 -compact-keep 128
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"orchestra/internal/core"
	"orchestra/internal/store/central"
	"orchestra/internal/store/remote"
	"orchestra/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7400", "address to listen on")
	dir := flag.String("dir", "", "durability directory (empty = in-memory)")
	schemaName := flag.String("schema", "protein", "built-in schema: protein|swissprot")
	snapEvery := flag.Int("snapshot-every", 0, "take an engine-state snapshot every N stable epochs (0 = only on demand); snapshots bound peer catch-up to the post-snapshot tail")
	compactKeep := flag.Int("compact-keep", -1, "after each automatic snapshot, compact the publish log keeping N epochs below the allowed horizon (-1 = never compact; requires -snapshot-every)")
	flag.Parse()

	schema, err := builtinSchema(*schemaName)
	if err != nil {
		log.Fatal(err)
	}
	var opts []central.Option
	if *snapEvery > 0 {
		opts = append(opts, central.WithSnapshotEvery(*snapEvery))
	}
	if *compactKeep >= 0 {
		opts = append(opts, central.WithCompactKeep(*compactKeep))
	}
	backend, err := central.Open(schema, *dir, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()

	srv := remote.NewServer(backend, schema)
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("orchestra-store: serving schema %q on %s (dir=%q, snapshot-every=%d, compact-keep=%d)",
		*schemaName, addr, *dir, *snapEvery, *compactKeep)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("orchestra-store: shutting down")
	if *dir != "" {
		if err := backend.Checkpoint(); err != nil {
			log.Printf("checkpoint: %v", err)
		}
	}
}

// builtinSchema resolves the named schema.
func builtinSchema(name string) (*core.Schema, error) {
	switch name {
	case "protein":
		return core.NewSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	case "swissprot":
		return workload.Schema(), nil
	default:
		return nil, fmt.Errorf("unknown schema %q (want protein|swissprot)", name)
	}
}
