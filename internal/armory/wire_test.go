package armory

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"mavr/internal/firmware"
)

// encodeArtifact is what writeArtifact sends: the body, checked against
// the Content-Length it declares.
func encodeArtifact(t testing.TB, art *Artifact) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeArtifact(rec, art)
	body := rec.Body.Bytes()
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %s for a %d-byte body", cl, len(body))
	}
	return body
}

// FuzzArtifactWire holds the artifact format to two properties. A real
// artifact, report included, decodes reflect.DeepEqual to the original
// (checked on the seed artifacts before fuzzing). Arbitrary bytes
// decode to an error or an artifact, never a panic, and a decoded
// artifact re-encodes to a fixed point: what the server writes, the
// client reads back as the same artifact and the same image.
func FuzzArtifactWire(f *testing.F) {
	elf, _ := testImage()
	bases := [][]byte{elf}
	if !testing.Short() {
		img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := img.ELF.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, raw)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	for i, base := range bases {
		art, err := s.Randomize(Request{Image: base, Vehicle: "uav-" + strconv.Itoa(i), Epoch: uint64(i)})
		if err != nil {
			f.Fatal(err)
		}
		body := encodeArtifact(f, art)
		got, err := decodeArtifact(body)
		if err != nil {
			f.Fatal(err)
		}
		if !reflect.DeepEqual(got, art) {
			f.Fatalf("base %d: decoded artifact differs from the one encoded", i)
		}
		head := bytes.IndexByte(body, '\n') + 1
		f.Add(body)
		f.Add(body[:head])   // head only: an empty image
		f.Add(body[:head-1]) // head without its newline
		f.Add(body[head/2:]) // a head cut in half
		f.Add(append([]byte("{}\n"), body[head:]...))
	}
	f.Add([]byte("null\n\x00\n"))
	f.Add([]byte(`{"perm":[1,0],"report":{"findings":[{"severity":"bogus"}]}}` + "\n"))

	f.Fuzz(func(t *testing.T, body []byte) {
		art, err := decodeArtifact(body)
		if err != nil {
			return
		}
		if !bytes.Equal(art.Image, body[bytes.IndexByte(body, '\n')+1:]) {
			t.Fatal("image is not the bytes after the head")
		}
		first := encodeArtifact(t, art)
		again, err := decodeArtifact(first)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if !bytes.Equal(again.Image, art.Image) {
			t.Fatal("image changed across a re-encode")
		}
		if second := encodeArtifact(t, again); !bytes.Equal(second, first) {
			t.Fatalf("encoding is not a fixed point:\n%q\n%q", first[:bytes.IndexByte(first, '\n')], second[:bytes.IndexByte(second, '\n')])
		}
	})
}

// TestReadBodyPinsOnlyWhatArrives: a body that declares MaxImageBytes,
// delivers a few bytes and ends must fail having allocated a small
// bounded amount, not the declared length, as must one that ends on a
// buffer boundary. Bodies of each size around the boundaries read back
// exactly, into a buffer of exactly the declared size.
func TestReadBodyPinsOnlyWhatArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBody(bytes.NewReader([]byte("abc")), MaxImageBytes, MaxImageBytes)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("3 bytes of a declared %d: err = %v, want unexpected EOF", MaxImageBytes, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readChunk {
		t.Fatalf("3 bytes of a declared %d allocated %d bytes, want at most %d", MaxImageBytes, grew, 2*readChunk)
	}
	if _, err := readBody(bytes.NewReader(make([]byte, readChunk)), 2*readChunk, MaxImageBytes); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a body ending on the first buffer's end: err = %v, want unexpected EOF", err)
	}
	for _, n := range []int{0, 1, readChunk - 1, readChunk, readChunk + 1, 3*readChunk + 5, MaxImageBytes} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		got, err := readBody(bytes.NewReader(body), int64(n), MaxImageBytes)
		if err != nil || !bytes.Equal(got, body) || cap(got) != n {
			t.Fatalf("%d-byte body: err = %v, equal = %v, cap = %d", n, err, bytes.Equal(got, body), cap(got))
		}
	}
}
