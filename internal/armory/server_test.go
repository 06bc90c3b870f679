// (httptest servers manage their own deadlines; the armory logic under
// test stays deterministic.)
//
//mavr:wallclock
package armory

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mavr/internal/core"
)

// TestServerRoundTrip exercises the HTTP surface end to end through the
// typed client: randomize, signature check, report fetch, metrics.
func TestServerRoundTrip(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	c := NewClient(srv.URL, DefaultSecret)
	c.HTTPClient = srv.Client()

	art, err := c.Randomize(elf, "uav-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Report.OK() {
		t.Fatal("served report not OK")
	}
	if len(art.Image) == 0 {
		t.Fatal("artifact image did not survive the JSON round trip")
	}

	// The stored report is addressable by artifact digest...
	rep, err := c.ReportByDigest(art.ArtifactDigest)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "artifact" || rep.Vehicle != "uav-1" || rep.PermDigest != art.PermDigest {
		t.Fatalf("artifact report mismatch: %+v", rep)
	}
	if rep.Report == nil || !rep.Report.OK() {
		t.Fatal("stored report missing or not OK")
	}
	// ...and the base digest resolves to a base summary.
	baseRep, err := c.ReportByDigest(art.BaseDigest)
	if err != nil {
		t.Fatal(err)
	}
	if baseRep.Kind != "base" || baseRep.Blocks == 0 {
		t.Fatalf("base report mismatch: %+v", baseRep)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "armory.completed 1\n") {
		t.Fatalf("metrics scrape missing completed count:\n%s", body)
	}
}

// TestServerErrors checks the structured JSON error paths.
func TestServerErrors(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL, DefaultSecret)
	c.HTTPClient = srv.Client()

	// Garbage body → 422 with a structured error.
	var re *RequestError
	if _, err := c.Randomize([]byte("garbage"), "uav-1", 0); !errors.As(err, &re) || re.Status != 422 {
		t.Fatalf("garbage image: %v, want RequestError 422", err)
	}
	// Missing vehicle → 400.
	if _, err := c.Randomize(elf, "", 0); !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("missing vehicle: %v, want RequestError 400", err)
	}
	// Bad epoch → 400 straight from the handler.
	resp, err := srv.Client().Post(srv.URL+"/randomize?vehicle=uav-1&epoch=banana", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || er.Error == "" {
		t.Fatalf("bad epoch: status %d, error %q", resp.StatusCode, er.Error)
	}
	// Unknown report digest → 404.
	if _, err := c.ReportByDigest("deadbeef"); !errors.As(err, &re) || re.Status != 404 {
		t.Fatalf("unknown digest: %v, want RequestError 404", err)
	}
	// GET on /randomize → 405.
	resp, err = srv.Client().Get(srv.URL + "/randomize")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /randomize = %d, want 405", resp.StatusCode)
	}
	// Healthz.
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}
}

// TestClientRejectsTamperedArtifact proves the client-side integrity
// checks: a proxy (or compromised armory) altering the artifact bytes
// or the signature is caught before anything would be flashed.
func TestClientRejectsTamperedArtifact(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 1})
	defer s.Close()

	tamper := func(mutate func(*Artifact)) error {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			art, err := s.Randomize(Request{Image: elf, Vehicle: "uav-1", Epoch: 0})
			if err != nil {
				t.Fatal(err)
			}
			mutate(art)
			writeJSON(w, http.StatusOK, art)
		}))
		defer srv.Close()
		c := NewClient(srv.URL, DefaultSecret)
		c.HTTPClient = srv.Client()
		_, err := c.Randomize(elf, "uav-1", 0)
		return err
	}

	if err := tamper(func(a *Artifact) { a.Image[0] ^= 0xFF }); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("tampered image: %v, want digest mismatch", err)
	}
	if err := tamper(func(a *Artifact) { a.Signature = strings.Repeat("0", len(a.Signature)) }); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("tampered signature: %v, want signature failure", err)
	}
	// The signature does not cover the holder: only the client's check
	// keeps another vehicle's artifact from being flashed.
	if err := tamper(func(a *Artifact) { a.Vehicle = "uav-2" }); err == nil || !strings.Contains(err.Error(), "vehicle") {
		t.Fatalf("artifact for another vehicle: %v, want holder mismatch", err)
	}
	if err := tamper(func(a *Artifact) { a.Epoch++ }); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("artifact for another epoch: %v, want holder mismatch", err)
	}
	if err := tamper(func(a *Artifact) {}); err != nil {
		t.Fatalf("untampered response rejected: %v", err)
	}
}

// TestClientEscapesVehicleIDs sends vehicle IDs holding query syntax
// through the client and the handler. Each must reach the ledger as
// exactly that vehicle at exactly the requested epoch, so no two IDs
// share a holder or a permutation.
func TestClientEscapesVehicleIDs(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL, DefaultSecret)
	c.HTTPClient = srv.Client()

	holders := make(map[string]string) // perm digest -> vehicle
	for _, id := range []string{"uav", "uav#7", "uav#8", "a", "a&epoch=9", "x y", "x+y", "100%", "fleet 3"} {
		art, err := c.Randomize(elf, id, 1)
		if err != nil {
			t.Fatalf("vehicle %q: %v", id, err)
		}
		if art.Vehicle != id || art.Epoch != 1 || art.Reissued {
			t.Errorf("vehicle %q epoch 1: issued to %q epoch %d (reissued %v)", id, art.Vehicle, art.Epoch, art.Reissued)
		}
		if prev, ok := holders[art.PermDigest]; ok {
			t.Errorf("vehicles %q and %q share a permutation", prev, id)
		}
		holders[art.PermDigest] = id
	}
}

// TestServerRejectsMalformedLayout sends prepended images whose headers
// lie about the image under them — a function pointer past its end, a
// block extending past it. Both used to panic the randomizing worker
// and with it the whole process; now they are 422s and the service
// keeps serving.
func TestServerRejectsMalformedLayout(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL, DefaultSecret)
	c.HTTPClient = srv.Client()

	img := make([]byte, 16)
	for i, p := range []*core.Preprocessed{
		{Image: img, Blocks: []core.Block{{Name: "f", Start: 8, Size: 8}}, RegionStart: 8, RegionEnd: 16, PtrOffsets: []uint32{0x40}},
		{Image: img, Blocks: []core.Block{{Name: "f", Start: 8, Size: 0x38}}, RegionStart: 8, RegionEnd: 0x40},
	} {
		var body bytes.Buffer
		if _, err := p.WriteTo(&body); err != nil {
			t.Fatal(err)
		}
		var re *RequestError
		if _, err := c.Randomize(body.Bytes(), "uav-bad", uint64(i)); !errors.As(err, &re) || re.Status != 422 {
			t.Fatalf("malformed image %d: %v, want RequestError 422", i, err)
		}
	}
	if _, err := c.Randomize(elf, "uav-1", 0); err != nil {
		t.Fatalf("good request after malformed ones: %v", err)
	}
}
