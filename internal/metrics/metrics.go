// Package metrics renders counter structs as the plain-text exposition
// the daemons serve on /metrics: one "name value" pair per line,
// sorted. A component declares each counter once, as a field of a plain
// struct tagged `metric:"name"`; Lines turns a snapshot of that struct
// into lines, so a counter's name, type and rendering live in one
// place.
package metrics

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Lines renders each field of struct v tagged `metric:"name"` as
// "prefix.name value": integers in decimal, bools as 0 or 1, a
// time.Duration in whole milliseconds. Untagged fields are skipped. A
// tagged field of any other type is a programming error and panics.
func Lines(prefix string, v any) []string {
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	var lines []string
	for i := 0; i < rt.NumField(); i++ {
		name, ok := rt.Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		lines = append(lines, prefix+"."+name+" "+format(rv.Field(i)))
	}
	return lines
}

func format(f reflect.Value) string {
	switch {
	case f.Type() == reflect.TypeFor[time.Duration]():
		return strconv.FormatInt(time.Duration(f.Int()).Milliseconds(), 10)
	case f.Kind() == reflect.Bool:
		if f.Bool() {
			return "1"
		}
		return "0"
	case f.CanInt():
		return strconv.FormatInt(f.Int(), 10)
	case f.CanUint():
		return strconv.FormatUint(f.Uint(), 10)
	}
	panic(fmt.Sprintf("metrics: field of type %s has no rendering", f.Type()))
}

// Text sorts lines and joins them, each ending in a newline.
func Text(lines []string) string {
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
