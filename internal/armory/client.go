package armory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// Client talks to an armory daemon. The zero HTTPClient uses
// http.DefaultClient; Secret, when set, is used to authenticate
// artifact signatures client-side.
type Client struct {
	URL        string // base URL, e.g. "http://127.0.0.1:8737"
	Secret     []byte
	HTTPClient *http.Client
}

// NewClient returns a client for the armory at url. A nil secret skips
// client-side signature verification.
func NewClient(url string, secret []byte) *Client {
	return &Client{URL: url, Secret: secret}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Randomize submits a base image for one (vehicle, epoch) and returns
// the signed artifact. The vehicle ID is an opaque string, escaped into
// the query. The artifact digest is recomputed over the received image,
// the permutation must hash to the permutation digest, the artifact
// must name the requested vehicle and epoch and, when the client has a
// secret, the signature is verified — a compromised or misconfigured
// armory cannot hand back bytes or a layout it did not sign for, or
// another holder's artifact.
func (c *Client) Randomize(image []byte, vehicle string, epoch uint64) (*Artifact, error) {
	q := url.Values{"vehicle": {vehicle}, "epoch": {strconv.FormatUint(epoch, 10)}}
	body, err := readResponse(c.http().Post(c.URL+"/randomize?"+q.Encode(), "application/octet-stream", bytes.NewReader(image)))
	if err != nil {
		return nil, err
	}
	art, err := decodeArtifact(body)
	if err != nil {
		return nil, fmt.Errorf("armory: decoding artifact: %w", err)
	}
	if got := Digest(art.Image); got != art.ArtifactDigest {
		return nil, fmt.Errorf("armory: artifact digest mismatch: claimed %s, got %s", art.ArtifactDigest, got)
	}
	if got := PermDigest(art.Perm); got != art.PermDigest {
		return nil, fmt.Errorf("armory: permutation digest mismatch: claimed %s, got %s", art.PermDigest, got)
	}
	if art.Vehicle != vehicle || art.Epoch != epoch {
		return nil, fmt.Errorf("armory: artifact issued to vehicle %q epoch %d, requested %q epoch %d",
			art.Vehicle, art.Epoch, vehicle, epoch)
	}
	if c.Secret != nil && !VerifySignature(c.Secret, art.BaseDigest, art.PermDigest, art.ArtifactDigest, art.Signature) {
		return nil, fmt.Errorf("armory: artifact signature verification failed")
	}
	return art, nil
}

// readResponse reads the body of an armory answer, at most
// maxResponseBytes of it, and returns it if the status is 200. Any
// other status is a *RequestError carrying the armory's JSON error.
func readResponse(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, fmt.Errorf("armory: %w", err)
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength, maxResponseBytes)
	if err != nil {
		return nil, fmt.Errorf("armory: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			return nil, &RequestError{Status: resp.StatusCode, Msg: er.Error, Findings: er.Findings}
		}
		return nil, &RequestError{Status: resp.StatusCode, Msg: fmt.Sprintf("armory: HTTP %d", resp.StatusCode)}
	}
	return body, nil
}
