// Command orchestra-peer runs one CDSS participant against an
// orchestra-store server. It reads commands from stdin (one per line) and
// is equally usable interactively or scripted:
//
//	insert <rel> <v1> <v2> ...          insert a tuple
//	delete <rel> <v1> <v2> ...          delete a tuple (full value)
//	modify <rel> <n> <old...> <new...>  replace a tuple (n = arity)
//	publish                             publish pending local transactions
//	reconcile                           import newly published transactions
//	sync                                publish + reconcile
//	show [rel]                          print the local instance
//	conflicts                           list deferred conflict groups
//	resolve <group#> <option#|-1>       resolve a conflict group
//	status                              peer status line (owed: docs/FAULTS.md)
//	quit
//
// Example:
//
//	orchestra-peer -id p1 -store 127.0.0.1:7400 -policy policy.txt
//
// where policy.txt holds acceptance rules such as
//
//	priority 2 when origin = 'p2'
//	priority 1 when origin in ('p3', 'p4')
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/remote"
	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

func main() {
	id := flag.String("id", "", "participant ID (required)")
	storeAddr := flag.String("store", "127.0.0.1:7400", "orchestra-store address")
	policyPath := flag.String("policy", "", "acceptance-rule file (default: trust everyone at priority 1)")
	schemaName := flag.String("schema", "protein", "built-in schema: protein|swissprot (must match the store)")
	flag.Parse()
	if *id == "" {
		log.Fatal("orchestra-peer: -id is required")
	}

	schema, err := builtinSchema(*schemaName)
	if err != nil {
		log.Fatal(err)
	}
	policy := trust.NewPolicy().MustAdd(1, "true")
	if *policyPath != "" {
		text, err := os.ReadFile(*policyPath)
		if err != nil {
			log.Fatal(err)
		}
		policy, err = trust.Parse(string(text))
		if err != nil {
			log.Fatal(err)
		}
	}
	policy.WithSchema(schema)

	ctx := context.Background()
	client := remote.NewClient(*id, *storeAddr)
	peer, err := store.NewPeer(ctx, core.PeerID(*id), schema, policy, client)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orchestra-peer %s connected to %s (schema %s)\n", *id, *storeAddr, *schemaName)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("%s> ", *id)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if err := dispatch(ctx, peer, schema, fields); err != nil {
			if err == errQuit {
				return
			}
			fmt.Printf("error: %v\n", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

func dispatch(ctx context.Context, peer *store.Peer, schema *core.Schema, fields []string) error {
	switch fields[0] {
	case "quit", "exit":
		return errQuit
	case "insert", "delete":
		if len(fields) < 3 {
			return fmt.Errorf("usage: %s <rel> <values...>", fields[0])
		}
		rel := fields[1]
		t := core.Strs(fields[2:]...)
		var u core.Update
		if fields[0] == "insert" {
			u = core.Insert(rel, t, peer.ID())
		} else {
			u = core.Delete(rel, t, peer.ID())
		}
		x, err := peer.Edit(u)
		if err != nil {
			return err
		}
		fmt.Printf("staged %s\n", x)
		return nil
	case "modify":
		if len(fields) < 4 {
			return fmt.Errorf("usage: modify <rel> <arity> <old values...> <new values...>")
		}
		rel := fields[1]
		n, err := strconv.Atoi(fields[2])
		if err != nil || len(fields) != 3+2*n {
			return fmt.Errorf("usage: modify <rel> <arity> <old...> <new...> (2×arity values)")
		}
		old := core.Strs(fields[3 : 3+n]...)
		new := core.Strs(fields[3+n:]...)
		x, err := peer.Edit(core.Modify(rel, old, new, peer.ID()))
		if err != nil {
			return err
		}
		fmt.Printf("staged %s\n", x)
		return nil
	case "publish":
		epoch, err := peer.Publish(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("published at epoch %d\n", epoch)
		return nil
	case "reconcile", "sync":
		if fields[0] == "sync" {
			if _, err := peer.Publish(ctx); err != nil {
				return err
			}
		}
		// A result with an error: only the decision flush failed, and the
		// peer owes the store those decisions (status shows owed=<n>).
		res, err := peer.Reconcile(ctx)
		if res == nil {
			return err
		}
		fmt.Printf("recno %d: accepted %v, rejected %v, deferred %v\n",
			res.Recno, res.Accepted, res.Rejected, res.Deferred)
		return err
	case "show":
		rels := schema.Names()
		if len(fields) > 1 {
			rels = fields[1:]
		}
		for _, rel := range rels {
			fmt.Printf("%s (%d tuples):\n", rel, peer.Instance().Len(rel))
			for _, t := range peer.Instance().Tuples(rel) {
				fmt.Printf("  %v\n", t)
			}
		}
		return nil
	case "conflicts":
		groups := peer.Engine().ConflictGroups()
		if len(groups) == 0 {
			fmt.Println("no outstanding conflicts")
			return nil
		}
		for i, g := range groups {
			fmt.Printf("[%d] %v\n", i, g.Conflict)
			for j, o := range g.Options {
				fmt.Printf("    option %d: %s (txns %v)\n", j, o.Effect(), o.Txns)
			}
		}
		return nil
	case "resolve":
		if len(fields) != 3 {
			return fmt.Errorf("usage: resolve <group#> <option#|-1>")
		}
		gi, err1 := strconv.Atoi(fields[1])
		oi, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("usage: resolve <group#> <option#|-1>")
		}
		groups := peer.Engine().ConflictGroups()
		if gi < 0 || gi >= len(groups) {
			return fmt.Errorf("no conflict group %d", gi)
		}
		res, err := peer.Resolve(ctx, groups[gi].Conflict, oi)
		if res == nil {
			return err
		}
		// The re-run's result lists only the components it reconsidered;
		// the engine has the whole deferred set.
		fmt.Printf("resolved: accepted %v, rejected %v, still deferred %v\n",
			res.Accepted, res.Rejected, peer.Engine().DeferredIDs())
		return err
	case "status":
		fmt.Printf("peer %s: pending=%d owed=%d deferred=%d store=%v local=%v\n",
			peer.ID(), peer.PendingCount(), peer.Owed(), len(peer.Engine().DeferredIDs()),
			peer.StoreTime().Round(1e6), peer.LocalTime().Round(1e6))
		return nil
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}

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
