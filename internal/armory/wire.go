package armory

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// maxResponseBytes bounds every body the client reads: the largest
// image the server accepts plus an allowance for the artifact's head
// (about 5 KB for a clean report) or an error's findings.
const maxResponseBytes = MaxImageBytes + 1<<20

// errTooLarge is readBody's answer to a body over its limit.
var errTooLarge = errors.New("body too large")

// readChunk is the buffer readBody starts a declared-length body in.
const readChunk = 64 << 10

// firstChunks recycles the buffers the first readChunk bytes of a
// longer body arrive in: readBody copies them out when it grows, so the
// usual upload or artifact allocates only its full-size buffer.
var firstChunks = sync.Pool{New: func() any { return new([readChunk]byte) }}

// readBody reads an HTTP body of declared length (-1 when unknown, as
// for a chunked body) that may hold at most limit bytes. A declared
// length above limit fails before anything is read. A declared length
// is read into a buffer that starts at readChunk bytes and quadruples
// as bytes arrive, its last size exactly the declared one, so a peer
// that declares the limit and sends little pins little: at most four
// times what it sent, or readChunk. Quadrupling rather than doubling
// reads a body of up to 256 KiB, every artifact and most uploads, with
// a single 64 KiB copy. An unknown length is read until EOF or one
// byte past limit.
func readBody(body io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", errTooLarge, declared, limit)
	}
	if declared >= 0 {
		var buf []byte
		if declared > readChunk { // outgrown before readBody returns
			chunk := firstChunks.Get().(*[readChunk]byte)
			defer firstChunks.Put(chunk)
			buf = chunk[:]
		} else {
			buf = make([]byte, declared)
		}
		for n := 0; ; {
			if _, err := io.ReadFull(body, buf[n:]); err != nil {
				if err == io.EOF && n > 0 {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
			if n = len(buf); int64(n) == declared {
				return buf, nil
			}
			grown := make([]byte, min(4*int64(n), declared))
			copy(grown, buf)
			buf = grown
		}
	}
	buf, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) > limit {
		return nil, fmt.Errorf("%w: more than %d bytes", errTooLarge, limit)
	}
	return buf, nil
}

// writeArtifact answers 200 with art in the artifact format (doc.go):
// the artifact's JSON head on one line (every field but Image), a
// newline, then the image's raw bytes, with Content-Length covering
// both.
func writeArtifact(w http.ResponseWriter, art *Artifact) {
	var head bytes.Buffer
	enc := json.NewEncoder(&head)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(art); err != nil { // Encode ends the line
		writeError(w, http.StatusInternalServerError, err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(head.Len()+len(art.Image)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; there is no one to tell.
	w.Write(head.Bytes())
	w.Write(art.Image)
}

// decodeArtifact parses an artifact-format body. JSON written without
// indentation holds no raw newline, so the first one ends the head. The
// returned Image aliases body.
func decodeArtifact(body []byte) (*Artifact, error) {
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return nil, errors.New("no newline after the artifact head")
	}
	var art Artifact
	if err := json.Unmarshal(body[:nl], &art); err != nil {
		return nil, err
	}
	art.Image = body[nl+1:]
	return &art, nil
}
