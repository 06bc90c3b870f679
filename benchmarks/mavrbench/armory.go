package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"mavr/internal/armory"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/staticverify"
)

// armoryWorkers is the armory worker-pool size. It is fixed rather
// than runtime.NumCPU so the load is the same on every host; the
// benchmark host has 2 cores.
const armoryWorkers = 2

// decomposeItems is how many items of the cold pipeline also time its
// verification base in parts (CFG alone, CFG with VSA, gadget audit).
const decomposeItems = 6

// subject is one base firmware image as the armory receives it.
type subject struct {
	name string
	raw  []byte // ELF bytes
}

func genSubjects(specs ...firmware.AppSpec) ([]subject, error) {
	var out []subject
	for _, s := range specs {
		img, err := firmware.Generate(s, firmware.ModeMAVR)
		if err != nil {
			return nil, err
		}
		raw, err := img.ELF.Marshal()
		if err != nil {
			return nil, err
		}
		out = append(out, subject{name: s.Name, raw: raw})
	}
	return out, nil
}

// serviceOptions are the verification options an armory.Service
// applies by default: the full verifier plus value-set analysis.
func serviceOptions() staticverify.Options {
	o := staticverify.DefaultOptions()
	o.VSA = true
	return o
}

// checkReport checks what every served artifact must satisfy.
func checkReport(art *armory.Artifact, vehicle string, epoch uint64) error {
	if art.Vehicle != vehicle || art.Epoch != epoch {
		return fmt.Errorf("artifact for %s@%d answers %s@%d", art.Vehicle, art.Epoch, vehicle, epoch)
	}
	if art.Report == nil || !art.Report.OK() {
		return fmt.Errorf("artifact for %s@%d has a failing verification report", vehicle, epoch)
	}
	return nil
}

// coldInst is the armory-cold workload: every request goes to a fresh
// service, so the base image is parsed, preprocessed and analyzed (CFG,
// VSA, gadget census) before its artifact is randomized, verified and
// signed. Requests rotate over the three paper profiles.
type coldInst struct {
	seed   int64
	bases  []subject
	issued []coldIssue
}

type coldIssue struct {
	req            armory.Request
	artifact, perm string
}

func setupCold(seed int64) (instance, error) {
	bases, err := genSubjects(firmware.Profiles()...)
	if err != nil {
		return nil, err
	}
	c := &coldInst{seed: seed, bases: bases}
	// Warm up on a fixed request so set-up time does not depend on the
	// seed.
	warm := armory.Request{Image: bases[0].raw, Vehicle: "warm-up"}
	if _, _, err := c.randomize(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

// request returns item k's base and request.
func (c *coldInst) request(k int) (subject, armory.Request) {
	n := int64(len(c.bases))
	b := c.bases[(int64(k)+c.seed%n+n)%n]
	return b, armory.Request{Image: b.raw, Vehicle: fmt.Sprintf("cold-%d-%d", c.seed, k)}
}

// randomize serves req from a fresh service and checks the artifact as
// a client without the service's state would: report, digest,
// signature, and that nothing was served from a cache.
func (c *coldInst) randomize(req armory.Request) (*armory.Artifact, armory.Stats, error) {
	svc := armory.New(armory.Config{Workers: armoryWorkers})
	art, err := svc.Randomize(req)
	st := svc.Stats()
	svc.Close()
	if err != nil {
		return nil, st, err
	}
	if err := checkReport(art, req.Vehicle, req.Epoch); err != nil {
		return nil, st, err
	}
	if armory.Digest(art.Image) != art.ArtifactDigest {
		return nil, st, errors.New("artifact digest does not match its image")
	}
	if !armory.VerifySignature(armory.DefaultSecret, art.BaseDigest, art.PermDigest, art.ArtifactDigest, art.Signature) {
		return nil, st, errors.New("artifact signature does not verify")
	}
	if art.CacheHit || art.Reissued {
		return nil, st, errors.New("fresh service served a cached or reissued artifact")
	}
	return art, st, nil
}

func (c *coldInst) item(_, k, id int, tr *tracer, root int) (func() error, error) {
	b, req := c.request(k)
	art, st, err := c.randomize(req)
	if err != nil {
		return nil, err
	}
	c.issued = append(c.issued, coldIssue{req, art.ArtifactDigest, art.PermDigest})
	if tr == nil {
		return nil, nil
	}
	return func() error {
		addServiceStats(tr, st)
		var pre *core.Preprocessed
		if err := tr.do("armory.load", id, root, func() (err error) {
			armory.Digest(b.raw)
			if pre, err = core.LoadImage(b.raw); err == nil {
				armory.Digest(pre.Image)
			}
			return err
		}); err != nil {
			return err
		}
		var base *staticverify.Base
		tr.do("staticverify.NewBase", id, root, func() error {
			base = staticverify.NewBase(pre, serviceOptions())
			return nil
		})
		if sites, resolved, ok := base.VSASummary(); ok {
			tr.add("vsa.bases", 1)
			tr.add("vsa.sites", float64(sites))
			tr.add("vsa.resolved", float64(resolved))
		}
		r, err := stages(tr, id, root, pre, base, armory.NewLedger(), art)
		if err != nil || k >= decomposeItems {
			return err
		}
		return decompose(tr, id, pre, r)
	}, nil
}

// finish checks the cold artifacts against a warm service: the same
// requests served from a cached base must yield the same artifacts.
func (c *coldInst) finish(*tracer) []error {
	svc := armory.New(armory.Config{Workers: armoryWorkers})
	defer svc.Close()
	var errs []error
	for _, is := range c.issued {
		art, err := svc.Randomize(is.req)
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("warm replay of %s: %w", is.req.Vehicle, err))
		case art.ArtifactDigest != is.artifact || art.PermDigest != is.perm:
			errs = append(errs, fmt.Errorf("%s: cold and cached artifacts differ", is.req.Vehicle))
		}
	}
	return errs
}

func (c *coldInst) close() {}

// stages repeats the per-artifact pipeline stages of the armory on the
// artifact's own inputs, as children of parent: the ledger claim,
// randomization, verification against the cached base, and signing.
// It checks that the artifact is the base randomized by its
// permutation.
func stages(tr *tracer, id, parent int, pre *core.Preprocessed, base *staticverify.Base, ledger *armory.Ledger, art *armory.Artifact) (*core.Randomized, error) {
	if err := tr.do("armory.ledger", id, parent, func() error {
		core.Permutation(rand.New(rand.NewSource(int64(id))), len(pre.Blocks))
		if armory.PermDigest(art.Perm) != art.PermDigest {
			return errors.New("permutation digest does not match the artifact's permutation")
		}
		want := armory.Issued
		if art.Reissued {
			want = armory.Reissued
		}
		if got := ledger.Claim(art.BaseDigest, art.PermDigest, armory.Holder{Vehicle: art.Vehicle, Epoch: art.Epoch}); got != want {
			return fmt.Errorf("ledger claim resolved %d, the armory said %d", got, want)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var r *core.Randomized
	if err := tr.do("core.Randomize", id, parent, func() (err error) {
		r, err = core.Randomize(pre, art.Perm)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("staticverify.Base.Verify", id, parent, func() error {
		if rep := base.Verify(r); !rep.OK() {
			return fmt.Errorf("verification of the repeated randomization: %d errors", rep.Errors())
		}
		return nil
	}); err != nil {
		return nil, err
	}
	tr.do("armory.sign", id, parent, func() error {
		armory.Sign(armory.DefaultSecret, art.BaseDigest, art.PermDigest, armory.Digest(r.Image))
		return nil
	})
	if !bytes.Equal(r.Image, art.Image) {
		return nil, errors.New("artifact is not the base randomized by its permutation")
	}
	return r, nil
}

// decompose times the verification base in parts, in a probe tree: the
// CFG alone, the CFG with value-set analysis, and the gadget audit.
func decompose(tr *tracer, id int, pre *core.Preprocessed, r *core.Randomized) error {
	p := tr.begin(probeRoot, id, 0)
	defer tr.end(p)
	tr.do("staticverify.NewBase/cfg", id, p, func() error {
		staticverify.NewBase(pre, staticverify.Options{})
		return nil
	})
	tr.do("staticverify.NewBase/vsa", id, p, func() error {
		staticverify.NewBase(pre, staticverify.Options{VSA: true})
		return nil
	})
	return tr.do("staticverify.AuditGadgets", id, p, func() error {
		staticverify.AuditGadgets(pre, r, 24)
		return nil
	})
}

func addServiceStats(tr *tracer, st armory.Stats) {
	tr.add("armory.hits", float64(st.CacheHits))
	tr.add("armory.misses", float64(st.CacheMisses))
	tr.add("armory.reissues", float64(st.Reissues))
	tr.add("armory.conflicts", float64(st.LedgerConflicts))
	tr.add("armory.completed", float64(st.Completed))
	tr.add("verify.fast", float64(st.FastVerifies))
	tr.add("verify.fallback", float64(st.FallbackVerifies))
}

// fleetInst is the armory-fleet workload: one warm service behind
// armory.Handler on loopback HTTP, and closed-loop clients on one
// connection each sending a fleet's requests: 80% new vehicles, 10%
// epoch bumps, 10% exact replays.
type fleetInst struct {
	seed    int64
	bases   []subject
	svc     *armory.Service
	srv     *http.Server
	served  chan struct{}
	clients []*fleetClient

	// check is an independent ledger of every issued artifact: a
	// permutation issued to two holders of one base is a failure.
	check *armory.Ledger
	mu    sync.Mutex
	first map[string]firstIssue // per base digest, for finish

	// Traced runs only: an in-process twin service receiving the same
	// requests, and each base's preprocessed image and verification base
	// for the repeated stages.
	traceOnce sync.Once
	traceErr  error
	twin      *armory.Service
	pres      []*core.Preprocessed
	vbases    []*staticverify.Base
	ledger    *armory.Ledger
}

type fleetClient struct {
	api      *armory.Client
	body     *countingTransport
	rng      *rand.Rand
	vehicles []fleetVehicle
	history  []fleetIssue
}

type fleetVehicle struct {
	name  string
	base  int
	epoch uint64
}

// firstIssue is the first artifact issued for a base.
type firstIssue struct {
	art  *armory.Artifact
	base int
}

type fleetIssue struct {
	v              fleetVehicle
	artifact, perm string
}

func setupFleet(seed int64) (instance, error) {
	bases, err := genSubjects(firmware.Profiles()...)
	if err != nil {
		return nil, err
	}
	return newFleet(seed, bases)
}

// newFleet starts the service and its clients and warms the cache with
// one request per base.
func newFleet(seed int64, bases []subject) (*fleetInst, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleetInst{
		seed:   seed,
		bases:  bases,
		svc:    armory.New(armory.Config{Workers: armoryWorkers}),
		served: make(chan struct{}),
		check:  armory.NewLedger(),
		first:  make(map[string]firstIssue),
	}
	f.srv = &http.Server{Handler: armory.Handler(f.svc)}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // http.ErrServerClosed once close shuts it down
	}()
	url := "http://" + ln.Addr().String()
	for c := 0; c < 2; c++ { // the workload's two clients
		body := &countingTransport{rt: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		f.clients = append(f.clients, &fleetClient{
			api:  &armory.Client{URL: url, Secret: armory.DefaultSecret, HTTPClient: &http.Client{Transport: body}},
			body: body,
			rng:  rand.New(rand.NewSource(seed*7919 + int64(c))),
		})
	}
	for i, b := range bases {
		art, err := f.clients[0].api.Randomize(b.raw, warmVehicle(i), 0)
		if err == nil {
			err = f.issue(art, i)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up of %s: %w", b.name, err)
		}
	}
	return f, nil
}

func warmVehicle(base int) string { return fmt.Sprintf("warm-%d", base) }

// issue records a newly issued artifact of base in the independent
// ledger.
func (f *fleetInst) issue(art *armory.Artifact, base int) error {
	if err := checkReport(art, art.Vehicle, art.Epoch); err != nil {
		return err
	}
	if art.Reissued {
		return fmt.Errorf("new request %s@%d came back reissued", art.Vehicle, art.Epoch)
	}
	h := armory.Holder{Vehicle: art.Vehicle, Epoch: art.Epoch}
	if f.check.Claim(art.BaseDigest, art.PermDigest, h) != armory.Issued {
		return fmt.Errorf("permutation of %s@%d was already issued", art.Vehicle, art.Epoch)
	}
	f.mu.Lock()
	if _, ok := f.first[art.BaseDigest]; !ok {
		f.first[art.BaseDigest] = firstIssue{art, base}
	}
	f.mu.Unlock()
	return nil
}

func (f *fleetInst) item(c, k, id int, tr *tracer, root int) (func() error, error) {
	fc := f.clients[c]
	var v fleetVehicle
	var replay *fleetIssue
	switch r := fc.rng.Intn(100); {
	case len(fc.history) == 0 || r < 80:
		v = fleetVehicle{name: fmt.Sprintf("v%d-%d-%d", f.seed, c, len(fc.vehicles)), base: (c + len(fc.vehicles)) % len(f.bases)}
		fc.vehicles = append(fc.vehicles, v)
	case r < 90:
		i := fc.rng.Intn(len(fc.vehicles))
		fc.vehicles[i].epoch++
		v = fc.vehicles[i]
	default:
		h := fc.history[fc.rng.Intn(len(fc.history))]
		replay, v = &h, h.v
	}
	before := fc.body.n.Load()
	art, err := fc.api.Randomize(f.bases[v.base].raw, v.name, v.epoch)
	if err != nil {
		return nil, err
	}
	if replay != nil {
		if !art.Reissued || art.ArtifactDigest != replay.artifact || art.PermDigest != replay.perm {
			return nil, fmt.Errorf("replay of %s@%d did not return the same artifact", v.name, v.epoch)
		}
	} else {
		if err := f.issue(art, v.base); err != nil {
			return nil, err
		}
		fc.history = append(fc.history, fleetIssue{v, art.ArtifactDigest, art.PermDigest})
	}
	if tr == nil {
		return nil, nil
	}
	return func() error {
		tr.add("armory.response_bytes", float64(fc.body.n.Load()-before))
		tr.add("armory.responses", 1)
		if err := f.initTrace(); err != nil {
			return err
		}
		req := armory.Request{Image: f.bases[v.base].raw, Vehicle: v.name, Epoch: v.epoch}
		svcID := tr.begin("armory.Service.Randomize", id, root)
		twin, err := f.twin.Randomize(req)
		tr.end(svcID)
		if err != nil {
			return err
		}
		if twin.ArtifactDigest != art.ArtifactDigest {
			return errors.New("in-process artifact differs from the one served over HTTP")
		}
		_, err = stages(tr, id, svcID, f.pres[v.base], f.vbases[v.base], f.ledger, art)
		return err
	}, nil
}

// initTrace builds, once, what the traced run repeats stages against:
// a twin service warmed like the real one, and each base's
// preprocessed image and verification base.
func (f *fleetInst) initTrace() error {
	f.traceOnce.Do(func() {
		f.twin = armory.New(armory.Config{Workers: armoryWorkers})
		f.ledger = armory.NewLedger()
		for i, b := range f.bases {
			if _, err := f.twin.Randomize(armory.Request{Image: b.raw, Vehicle: warmVehicle(i)}); err != nil {
				f.traceErr = err
				return
			}
			pre, err := core.LoadImage(b.raw)
			if err != nil {
				f.traceErr = err
				return
			}
			f.pres = append(f.pres, pre)
			f.vbases = append(f.vbases, staticverify.NewBase(pre, serviceOptions()))
		}
	})
	return f.traceErr
}

// finish checks the fleet-wide invariants: nothing failed or was
// rejected, the service ledger issued exactly the permutations the
// clients saw, and each base's first artifact is the base randomized by
// its permutation.
func (f *fleetInst) finish(tr *tracer) []error {
	var errs []error
	st := f.svc.Stats()
	if st.Failed != 0 || st.VerifyRejections != 0 {
		errs = append(errs, fmt.Errorf("service: %d failed, %d verification rejections", st.Failed, st.VerifyRejections))
	}
	for digest, fi := range f.first {
		if got, want := f.svc.Ledger().Issued(digest), f.check.Issued(digest); got != want {
			errs = append(errs, fmt.Errorf("ledger issued %d permutations of a base, clients saw %d", got, want))
		}
		pre, err := core.LoadImage(f.bases[fi.base].raw)
		if err == nil {
			var r *core.Randomized
			if r, err = core.Randomize(pre, fi.art.Perm); err == nil && !bytes.Equal(r.Image, fi.art.Image) {
				err = errors.New("artifact is not the base randomized by its permutation")
			}
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	addServiceStats(tr, st)
	return errs
}

func (f *fleetInst) close() {
	f.srv.Close()
	<-f.served
	for _, c := range f.clients {
		c.body.rt.CloseIdleConnections()
	}
	f.svc.Close()
	if f.twin != nil {
		f.twin.Close()
	}
}

// countingTransport counts response body bytes.
type countingTransport struct {
	rt *http.Transport
	n  atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
