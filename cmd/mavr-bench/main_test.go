package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	valid := []string{"table1", "fig4", "bruteforce"}
	want, err := parseOnly("fig4,,bruteforce", valid)
	if err != nil || len(want) != 2 || !want["fig4"] || !want["bruteforce"] {
		t.Fatalf("parseOnly = %v, %v", want, err)
	}
	if want, err := parseOnly("", valid); err != nil || len(want) != 0 {
		t.Fatalf("empty -only = %v, %v; want every experiment", want, err)
	}
	_, err = parseOnly("fig4,fig5", valid)
	if err == nil || !strings.Contains(err.Error(), `"fig5"`) || !strings.Contains(err.Error(), "table1,fig4,bruteforce") {
		t.Fatalf("unknown name: err = %v, want it named with the valid list", err)
	}
}

// TestTranscript runs every experiment and holds the output byte for
// byte to the recorded transcript, so each table, figure and ablation
// is gated exactly, the way the golden traces gate the scenarios.
func TestTranscript(t *testing.T) {
	want, err := os.ReadFile("testdata/paper.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, ""); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	n, g, w := firstDiff(got.String(), string(want))
	t.Fatalf("output differs from testdata/paper.txt at line %d:\n got: %q\nwant: %q\n"+
		"if the change is intended, re-record: go run ./cmd/mavr-bench > cmd/mavr-bench/testdata/paper.txt", n, g, w)
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and the two lines there ("<end of output>" past the end
// of either).
func firstDiff(got, want string) (int, string, string) {
	gl, wl := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) && ls[i] != "" {
			return ls[i]
		}
		return "<end of output>"
	}
	for i := 0; ; i++ {
		if g, w := line(gl, i), line(wl, i); g != w {
			return i + 1, g, w
		}
	}
}

func TestFirstDiff(t *testing.T) {
	for _, c := range []struct {
		got, want string
		n         int
		g, w      string
	}{
		{"a\nb\nc\n", "a\nx\nc\n", 2, "b\n", "x\n"},
		{"a\nb\n", "a\nb\nc\n", 3, "<end of output>", "c\n"},
		{"a\nb", "a\nb\n", 2, "b", "b\n"},
	} {
		n, g, w := firstDiff(c.got, c.want)
		if n != c.n || g != c.g || w != c.w {
			t.Errorf("firstDiff(%q, %q) = %d, %q, %q; want %d, %q, %q", c.got, c.want, n, g, w, c.n, c.g, c.w)
		}
	}
}
