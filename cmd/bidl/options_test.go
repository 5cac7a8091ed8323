package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/bidl-framework/bidl"
)

// specLeaves counts the JSON-tagged leaf fields reachable from t: what a
// scenario file can set.
func specLeaves(t reflect.Type) int {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return 1
	}
	n := 0
	for i := 0; i < t.NumField(); i++ {
		if tag, ok := t.Field(i).Tag.Lookup("json"); ok && tag != "-" {
			n += specLeaves(t.Field(i).Type)
		}
	}
	return n
}

// flagCount counts the flags `bidl <sub> -h` lists.
func flagCount(t *testing.T, sub string) int {
	var stdout, stderr bytes.Buffer
	if code := run([]string{sub, "-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bidl %s -h exited %d", sub, code)
	}
	n := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			n++
		}
	}
	return n
}

// TestOptionCount pins how many knobs the three option surfaces hold, the way
// LOC_CEILING pins lines: a new spec field or flag has to raise a number
// here, in its own diff, and say in CHANGES.md who sets it.
func TestOptionCount(t *testing.T) {
	for _, c := range []struct {
		surface   string
		got, want int
	}{
		{"scenario spec fields", specLeaves(reflect.TypeOf(bidl.Scenario{})), 69},
		{"bidl run flags", flagCount(t, "run"), 29},
		{"bidl bench flags", flagCount(t, "bench"), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d, pinned at %d", c.surface, c.got, c.want)
		}
	}
}
