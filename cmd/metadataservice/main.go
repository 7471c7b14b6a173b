// Command metadataservice runs the CloudViews metadata service as a
// standalone HTTP server — the deployment shape of paper §6.1, where the
// service fronts a consistent store and every SCOPE compiler, optimizer,
// and job manager in the cluster talks to it.
//
// Clients use metadata.NewClient (or any JSON/HTTP caller) against the
// endpoints documented in internal/metadata/http.go. Analyzer output is
// pushed with POST /load.
//
//	metadataservice -addr :8439
//	metadataservice -addr :8439 -state meta.journal
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"cloudviews/internal/metadata"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("metadataservice: ")
	addr := flag.String("addr", ":8439", "listen address")
	statsEvery := flag.Duration("stats", time.Minute, "interval for logging service counters (0 disables)")
	statePath := flag.String("state", "", "snapshot file: restored at startup, saved periodically (the AzureSQL-durability stand-in)")
	saveEvery := flag.Duration("save-every", 30*time.Second, "snapshot interval when -state is set")
	flag.Parse()

	svc := metadata.NewService()
	if *statePath != "" {
		if f, err := os.Open(*statePath); err == nil {
			restored, rerr := metadata.Restore(f)
			f.Close()
			if rerr != nil {
				log.Fatalf("restore %s: %v", *statePath, rerr)
			}
			svc = restored
			anns, views, _, _, _ := svc.Stats()
			log.Printf("restored %s: %d annotations, %d views", *statePath, anns, views)
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
		go func() {
			for range time.Tick(*saveEvery) {
				if err := saveSnapshot(svc, *statePath); err != nil {
					log.Printf("snapshot: %v", err)
				}
			}
		}()
	}
	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				anns, views, locks, lookups, proposals := svc.Stats()
				log.Printf("annotations=%d views=%d locks=%d lookups=%d proposals=%d",
					anns, views, locks, lookups, proposals)
			}
		}()
	}

	log.Printf("serving CloudViews metadata on %s", *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           metadata.Handler(svc),
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}

// saveSnapshot writes the snapshot atomically (write temp, rename).
func saveSnapshot(svc *metadata.Service, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := svc.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
