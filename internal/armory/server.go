//mavr:wallclock
package armory

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mavr/internal/staticverify"
)

// MaxImageBytes bounds a POST /randomize body: four times the
// ATmega2560's 256 KiB of flash, and over three times the largest real
// upload (ArduCopter's ELF, 289,670 bytes).
const MaxImageBytes = 1 << 20

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error    string                 `json:"error"`
	Findings []staticverify.Finding `json:"findings,omitempty"`
}

// Handler serves the armory HTTP API for s:
//
//	POST /randomize?vehicle=<id>&epoch=<n>   body: base image bytes
//	GET  /report/<digest>                    artifact or base report
//	GET  /metrics                            text counters
//	GET  /healthz
//
// A 200 answer to /randomize is the artifact format (wire.go): the
// signed Artifact's JSON head without its image, a newline, then the
// image's raw bytes, with Content-Length set. The upload is read by
// its Content-Length into a buffer that grows as bytes arrive; a
// declared length above MaxImageBytes is a 413 before any of it is
// read. Every other answer,
// errors included, is one JSON value.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/randomize", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only", nil)
			return
		}
		vehicle := r.URL.Query().Get("vehicle")
		var epoch uint64
		if es := r.URL.Query().Get("epoch"); es != "" {
			v, err := strconv.ParseUint(es, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("bad epoch %q: %v", es, err), nil)
				return
			}
			epoch = v
		}
		img, err := readBody(r.Body, r.ContentLength, MaxImageBytes)
		if errors.Is(err, errTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("image exceeds %d bytes", MaxImageBytes), nil)
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err), nil)
			return
		}
		art, err := s.Randomize(Request{Image: img, Vehicle: vehicle, Epoch: epoch})
		if err != nil {
			var re *RequestError
			if errors.As(err, &re) {
				writeError(w, re.Status, re.Msg, re.Findings)
			} else {
				writeError(w, http.StatusInternalServerError, err.Error(), nil)
			}
			return
		}
		writeArtifact(w, art)
	})
	mux.HandleFunc("/report/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only", nil)
			return
		}
		digest := strings.TrimPrefix(r.URL.Path, "/report/")
		rep, ok := s.Report(digest)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no report for digest %q", digest), nil)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, s.MetricsText())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string, findings []staticverify.Finding) {
	writeJSON(w, status, errorResponse{Error: msg, Findings: findings})
}
