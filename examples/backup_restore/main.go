// backup_restore: the full live pipeline on real bytes. Builds an
// in-process cluster of 14 peers, backs up generated files from one of
// them (encrypt -> Reed-Solomon 6+6 -> one block per partner), kills
// partners, repairs, kills more, and finally restores - including the
// total-local-loss path that starts from just the private key.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/node"
	"p2pbackup/internal/p2pnet"
	"p2pbackup/internal/storage"
)

func main() {
	transport := p2pnet.NewInMemTransport(2026)
	dir := node.NewDirectory()
	params := backup.Params{DataBlocks: 6, ParityBlocks: 6}

	// Ages descend with the index so peer-00, our backup owner, is the
	// oldest (13 weeks, past the 90-day horizon): every candidate
	// accepts an elder requester (f = 1), exactly the regime the paper
	// rewards long-term users with. A fresh peer would be declined by
	// elders most of the time and have to settle for young partners.
	var nodes []*node.Node
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("peer-%02d", i)
		age := int64(20-i) * 7 * 24
		nd, err := node.New(node.Config{
			Name:            name,
			Age:             age,
			Transport:       transport,
			Store:           storage.NewMemStore(0),
			Directory:       dir,
			Params:          params,
			RepairThreshold: 9, // repair when fewer than 9 of 12 blocks respond
			Seed:            uint64(i),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer nd.Close()
		dir.Register(name, age)
		nodes = append(nodes, nd)
	}
	owner := nodes[0]

	files := []backup.FileEntry{
		{Path: "documents/thesis.tex", Mode: 0o644, ModTime: time.Now(), Data: bytes.Repeat([]byte("important work "), 2000)},
		{Path: "photos/family.raw", Mode: 0o600, ModTime: time.Now(), Data: bytes.Repeat([]byte{0xCA, 0xFE}, 15000)},
	}
	idx, err := owner.Backup(files, "home backup")
	if err != nil {
		log.Fatal(err)
	}
	vis, _ := owner.VisibleBlocks(idx)
	fmt.Printf("backed up 2 files into 12 blocks on 12 partners (visible: %d)\n", vis)

	audit, err := owner.Audit(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proof-of-storage audit: %d challenged, %d passed\n", audit.Challenged, audit.Passed)

	// Disaster 1: five partners vanish.
	for _, nd := range nodes[5:10] {
		transport.SetPartitioned(nd.Name(), true)
	}
	vis, _ = owner.VisibleBlocks(idx)
	fmt.Printf("\nfive peers vanish -> visible blocks: %d (threshold 9)\n", vis)
	rep, err := owner.MaintainTick(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maintenance tick: triggered=%v replaced=%d blocks on new partners\n", rep.Triggered, rep.Replaced)

	// Disaster 2: three of the remaining originals die too.
	for _, nd := range nodes[2:5] {
		transport.SetPartitioned(nd.Name(), true)
	}
	got, err := owner.Restore(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrestore after 8 peer losses: %d files recovered, %d bytes\n",
		len(got), len(got[0].Data)+len(got[1].Data))

	// Disaster 3: the owner's machine burns down. All that's left is
	// the private key; the master block and blocks live on partners.
	archives, err := node.RecoverFromNetwork(owner.Name(), owner.Identity(), transport, dir.Names())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total-loss recovery from the network: %d archive(s), first file %q intact: %v\n",
		len(archives), archives[0][0].Path, bytes.Equal(archives[0][1].Data, files[1].Data))
}
