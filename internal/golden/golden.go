// Package golden pins test outputs to files committed under a package's
// testdata directory, so a change in behaviour shows up in review as a
// diff of those files. Only tests import it.
//
// Run a package's tests with -update to rewrite its golden files from the
// current output (`make golden-update` does it for every package that has
// them), then review the diff before committing it.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current output")

// Updating reports whether the test binary runs with -update.
func Updating() bool { return *update }

// path names a golden file: testdata/<test name>/<name>.
func path(t testing.TB, name string) string {
	return filepath.Join("testdata", t.Name(), name)
}

// Check compares got with the golden file testdata/<test name>/<name> and
// reports the first differing line. Under -update it rewrites the file
// instead.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	if *update {
		p := path(t, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := Read(t, name)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s differs from %s at line %d:\n got: %q\nwant: %q", name, path(t, name), i+1, g, w)
			return
		}
	}
}

// Read returns the golden file testdata/<test name>/<name>, failing the
// test when it is missing.
func Read(t testing.TB, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(path(t, name))
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", name, err)
	}
	return want
}

// Digest returns the hex SHA-256 of a canonical encoding of v: every
// field, unexported ones included, in declaration order; floats by their
// IEEE 754 bits; nil pointers, slices and maps apart from empty ones; map
// entries in the order of their encoded keys; an interface as its dynamic
// type's name, then its value. A gob encoding would not do: gob numbers
// types in the order a process first encodes them, so the bytes of one
// value depend on what the process encoded before. v must be acyclic and
// hold no funcs, channels or unsafe pointers.
func Digest(v any) string {
	d := digester{h: sha256.New()}
	d.value(reflect.ValueOf(v))
	return hex.EncodeToString(d.h.Sum(nil))
}

type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) word(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.word(uint64(len(s)))
	io.WriteString(d.h, s)
}

func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		d.word(0)
	case reflect.Bool:
		if v.Bool() {
			d.word(1)
		} else {
			d.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.word(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		d.word(math.Float64bits(real(v.Complex())))
		d.word(math.Float64bits(imag(v.Complex())))
	case reflect.String:
		d.str(v.String())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			d.word(0)
			return
		}
		d.word(1)
		if v.Kind() == reflect.Interface {
			d.str(v.Elem().Type().String())
		}
		d.value(v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			d.word(0)
			return
		}
		d.word(1 + uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Map:
		if v.IsNil() {
			d.word(0)
			return
		}
		d.word(1 + uint64(v.Len()))
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			k, e := digester{h: sha256.New()}, digester{h: sha256.New()}
			k.value(it.Key())
			e.value(it.Value())
			entries = append(entries, entry{k.h.Sum(nil), e.h.Sum(nil)})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		for _, e := range entries {
			d.h.Write(e.k)
			d.h.Write(e.v)
		}
	default:
		panic(fmt.Sprintf("golden: cannot digest a %s", v.Type()))
	}
}
