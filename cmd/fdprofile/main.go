// Fdprofile profiles a CSV relation for functional dependencies and
// candidate keys — the discovery components of the normalization system
// as a standalone tool.
//
//	fdprofile [-algo hyfd|tane] [-maxlhs N] [-extend] [-keys] file.csv
//
// With -extend the FDs are printed with transitively maximized
// right-hand sides (the closure F⁺ of the paper's Section 4).
//
// The input is loaded through the same streaming ingest as normalize's.
// Ctrl-C cancels a running load or profile gracefully: the process
// prints the stage telemetry collected so far and exits with status
// 130. -timeout bounds the wall-clock time the same way (exit status 3,
// so scripts can tell an expired budget from an interactive interrupt),
// and -lenient loads malformed CSV by skipping bad rows instead of
// aborting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"normalize"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdprofile: ")
	algoName := flag.String("algo", "hyfd", "discovery algorithm: hyfd, tane, or dfd")
	maxLhs := flag.Int("maxlhs", 0, "prune FDs with left-hand sides larger than this (0 = unbounded)")
	extend := flag.Bool("extend", false, "maximize right-hand sides (closure F+)")
	showKeys := flag.Bool("keys", false, "also discover minimal candidate keys")
	asJSON := flag.Bool("json", false, "emit the FDs as JSON instead of text")
	timeout := flag.Duration("timeout", 0, "bound the profile's wall-clock time (0 = none)")
	lenient := flag.Bool("lenient", false, "skip malformed CSV rows instead of aborting")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: fdprofile [flags] file.csv")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	algo := normalize.HyFD
	switch *algoName {
	case "hyfd":
	case "tane":
		algo = normalize.TANE
	case "dfd":
		algo = normalize.DFD
	default:
		log.Fatalf("unknown algorithm %q", *algoName)
	}

	// The profile stages run under manual recorder spans so an
	// interrupted run still reports what it finished.
	rec := normalize.NewRecordingObserver()
	interrupted := func(err error) {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "fdprofile: timeout; partial stage telemetry:")
			rec.Summary(os.Stderr)
			os.Exit(3)
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "fdprofile: interrupted; partial stage telemetry:")
			rec.Summary(os.Stderr)
			stop()
			os.Exit(130)
		default:
			log.Fatal(err)
		}
	}

	rel, skipped, err := normalize.IngestCSVFile(ctx, flag.Arg(0), normalize.IngestOptions{Lenient: *lenient})
	for _, re := range skipped {
		fmt.Fprintf(os.Stderr, "fdprofile: skipped %v\n", re)
	}
	if err != nil {
		interrupted(err)
	}

	rec.StageStart(normalize.StageDiscovery)
	start := time.Now()
	fds, err := normalize.DiscoverFDsContext(ctx, rel, algo, *maxLhs)
	if err != nil {
		interrupted(err)
	}
	rec.StageFinish(normalize.StageDiscovery, time.Since(start))

	if *extend {
		rec.StageStart(normalize.StageClosure)
		start = time.Now()
		if _, err := normalize.ExtendFDsContext(ctx, fds, normalize.ClosureOptimized); err != nil {
			interrupted(err)
		}
		rec.StageFinish(normalize.StageClosure, time.Since(start))
	}
	if *asJSON {
		data, err := normalize.FDSetJSON(rel, fds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
	} else {
		fmt.Printf("# %s: %d attributes, %d rows, %d minimal FDs (%d left-hand sides)\n",
			rel.Name, rel.NumAttrs(), rel.NumRows(), fds.CountSingle(), fds.Len())
		fmt.Print(fds.Format(rel.Attrs))
	}

	if *showKeys {
		rec.StageStart(normalize.StagePrimaryKey)
		start = time.Now()
		keys, err := normalize.DiscoverKeysContext(ctx, rel)
		if err != nil {
			interrupted(err)
		}
		rec.StageFinish(normalize.StagePrimaryKey, time.Since(start))
		fmt.Println("# minimal keys:")
		for _, k := range keys {
			names := make([]string, 0, k.Cardinality())
			k.ForEach(func(e int) bool {
				names = append(names, rel.Attrs[e])
				return true
			})
			fmt.Printf("key: %v\n", names)
		}
	}
}
