package main

import (
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
