// mavr-armory hosts the fleet-scale firmware randomization and
// verification service (internal/armory).
//
// In serve mode it listens for POST /randomize submissions (base image
// bytes, ?vehicle= and ?epoch= identity), runs each through the
// preprocess → permute → patch → verify → sign pipeline, and returns
// the signed artifact with its full verification report. The
// content-addressed base cache makes the expensive per-base work (ELF
// parse, preprocessing, CFG recovery, gadget census) a one-time cost,
// and the fleet permutation ledger guarantees no two vehicles are ever
// issued the same permutation of the same base image.
//
// Usage:
//
//	mavr-armory [-addr 127.0.0.1:8737] [-workers 4] [-key <hex>]
//	            [-no-gadgets] [-status 10s]
//	mavr-armory -soak N [-workers 4] [-no-gadgets]
//
// The -soak mode is a self-contained batch smoke test used by CI: it
// generates the built-in test application, stands the service up on a
// loopback listener, submits the same base image for N distinct
// vehicles over HTTP concurrently, and fails (exit 1) unless every
// request yielded a verified, signed artifact with a fleet-unique
// permutation and the base was preprocessed exactly once.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"mavr/internal/armory"
	"mavr/internal/firmware"
	"mavr/internal/staticverify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8737", "HTTP listen address")
	workers := flag.Int("workers", 4, "randomization worker pool size")
	keyHex := flag.String("key", "", "artifact signing key (hex; empty: built-in dev key)")
	noGadgets := flag.Bool("no-gadgets", false, "skip the residual gadget audit (diff+CFG verification only)")
	status := flag.Duration("status", 10*time.Second, "status line interval (0: quiet)")
	soak := flag.Int("soak", 0, "soak mode: submit the test image for N distinct vehicles, check fleet uniqueness, exit")
	flag.Parse()

	cfg := armory.Config{Workers: *workers}
	if *keyHex != "" {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			return fmt.Errorf("bad -key: %w", err)
		}
		cfg.Secret = key
	}
	if *noGadgets {
		opts := staticverify.Options{}
		cfg.Opts = &opts
	}

	if *soak > 0 {
		return runSoak(*soak, cfg)
	}

	svc := armory.New(cfg)
	defer svc.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := newServer(svc)
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("armory: serving on http://%s (workers=%d, gadget audit=%v)\n",
		ln.Addr(), *workers, !*noGadgets)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *status > 0 {
		t := time.NewTicker(*status)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case s := <-sigs:
			fmt.Printf("armory: %v, shutting down\n", s)
			return nil
		case <-tick:
			st := svc.Stats()
			fmt.Printf("armory: completed=%d failed=%d bases=%d issued-perms=%d cache-hit=%d/%d verifies=%d\n",
				st.Completed, st.Failed, st.CachedBases,
				st.ArtifactsSigned, st.CacheHits, st.CacheHits+st.CacheMisses, st.FastVerifies)
		}
	}
}

// newServer serves the armory API for svc under fixed timeouts. An
// upload is at most armory.MaxImageBytes, which a LAN or loopback
// client sends in well under a second; a peer that stalls a request or
// idles a connection past them is dropped instead of holding it open.
func newServer(svc *armory.Service) *http.Server {
	const readHeader, read, idle = 5 * time.Second, 30 * time.Second, time.Minute
	return &http.Server{Handler: armory.Handler(svc), ReadHeaderTimeout: readHeader, ReadTimeout: read, IdleTimeout: idle}
}

// runSoak is the CI batch smoke: N concurrent HTTP submissions of one
// base image for N distinct vehicles must produce N distinct verified
// permutations off a single preprocessing pass.
func runSoak(n int, cfg armory.Config) error {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return fmt.Errorf("generating test firmware: %w", err)
	}
	elf, err := img.ELF.Marshal()
	if err != nil {
		return err
	}

	svc := armory.New(cfg)
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := newServer(svc)
	go srv.Serve(ln)
	defer srv.Close()

	secret := cfg.Secret
	if secret == nil {
		secret = armory.DefaultSecret
	}
	client := armory.NewClient("http://"+ln.Addr().String(), secret)

	start := time.Now()
	arts := make([]*armory.Artifact, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = client.Randomize(elf, fmt.Sprintf("uav-%04d", i), 0)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	perms := make(map[string]int, n)
	images := make(map[string]int, n)
	bad := 0
	for i := 0; i < n; i++ {
		switch {
		case errs[i] != nil:
			fmt.Fprintf(os.Stderr, "soak: vehicle %d: %v\n", i, errs[i])
			bad++
		case !arts[i].Report.OK():
			fmt.Fprintf(os.Stderr, "soak: vehicle %d: report has %d errors\n", i, arts[i].Report.Errors())
			bad++
		default:
			if prev, dup := perms[arts[i].PermDigest]; dup {
				fmt.Fprintf(os.Stderr, "soak: DUPLICATE PERMUTATION for vehicles %d and %d\n", prev, i)
				bad++
			}
			perms[arts[i].PermDigest] = i
			if prev, dup := images[arts[i].ArtifactDigest]; dup {
				fmt.Fprintf(os.Stderr, "soak: DUPLICATE IMAGE for vehicles %d and %d\n", prev, i)
				bad++
			}
			images[arts[i].ArtifactDigest] = i
		}
	}
	st := svc.Stats()
	fmt.Printf("soak: %d vehicles in %v (%.1f artifacts/sec)\n", n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	fmt.Printf("soak: distinct permutations %d/%d, cache misses %d (hits %d), verifies %d, conflicts %d\n",
		len(perms), n, st.CacheMisses, st.CacheHits, st.FastVerifies, st.LedgerConflicts)
	if bad > 0 {
		return fmt.Errorf("soak: %d violation(s)", bad)
	}
	if len(perms) != n {
		return fmt.Errorf("soak: %d distinct permutations for %d vehicles", len(perms), n)
	}
	if st.CacheMisses != 1 {
		return fmt.Errorf("soak: base preprocessed %d times, want exactly 1", st.CacheMisses)
	}
	fmt.Println("soak: OK")
	return nil
}
