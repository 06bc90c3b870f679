package armory

import (
	"bytes"
	"net/http/httptest"
	"reflect"
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
