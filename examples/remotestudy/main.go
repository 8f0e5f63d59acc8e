// Example remotestudy: serve studies over HTTP and consume them remotely.
//
// The paper's QoE studies ran as a hosted service many participants hit at
// once. This example reproduces that shape end to end in one process: it
// boots the qoed serving engine on a loopback port, then drives it with the
// SDK's HTTP client — browsing the catalog, streaming a study, watching the
// result cache turn a repeat into a zero-simulation replay, and fanning out
// concurrent identical requests that the server deduplicates onto a single
// simulation.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/pkg/qoe"
	"repro/pkg/qoe/qoed"
)

func main() {
	ctx := context.Background()

	// 1. Boot the serving engine on a free loopback port. qoed.Server is an
	// http.Handler, so embedding it is ordinary net/http wiring.
	srv := qoed.New(qoed.Config{Workers: 2, QueueDepth: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("qoed serving on %s\n", base)

	client := qoe.NewClient(base, nil)

	// 2. Browse the catalog: what can this daemon run?
	cat, err := client.Catalog(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d experiments, %d networks, %d scenario profiles, scales %v\n",
		len(cat.Experiments), len(cat.Networks), len(cat.Scenarios), cat.Scales)

	// 3. Stream a study cold: the server simulates and broadcasts live.
	req := qoe.RunRequest{Experiments: []string{"table1", "table2"}, Scale: qoe.ScaleQuick, Seed: 1}
	start := time.Now()
	cold, err := client.RunBytes(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	coldTime := time.Since(start)
	fmt.Printf("cold run: %d NDJSON bytes in %v\n", len(cold), coldTime.Round(time.Microsecond))

	// 4. Repeat it: the result cache replays the identical bytes with zero
	// simulation. Determinism is what makes this sound — same tuple, same
	// bytes, always.
	start = time.Now()
	warm, err := client.RunBytes(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cached replay: identical=%v in %v\n", string(warm) == string(cold), time.Since(start).Round(time.Microsecond))

	// 5. Fan out concurrent identical requests for a fresh tuple: the
	// server's singleflight table collapses them onto ONE simulation and
	// every client still receives the full identical stream.
	fresh := qoe.RunRequest{Experiments: []string{"ext-0rtt"}, Scale: qoe.ScaleQuick, Seed: 42}
	const participants = 6
	var wg sync.WaitGroup
	streams := make([][]byte, participants)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := client.RunBytes(ctx, fresh)
			if err != nil {
				log.Fatal(err)
			}
			streams[i] = b
		}(i)
	}
	wg.Wait()
	identical := true
	for _, s := range streams[1:] {
		identical = identical && string(s) == string(streams[0])
	}
	fmt.Printf("%d concurrent participants, all streams identical=%v\n", participants, identical)

	// 6. Ask the daemon how much work all that actually cost.
	met, err := client.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server metrics: %d simulations for %d requests (%d deduped, %d cache hits)\n",
		met.RunsStarted, 2+participants, met.RunsDeduped, met.RunsCacheHit)

	// 7. Drain gracefully: in-flight runs finish, the cache stays warm.
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatal(err)
	}
	httpSrv.Shutdown(drainCtx)
	fmt.Println("drained cleanly")
}
