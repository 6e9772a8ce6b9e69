package golden

import (
	"errors"
	"math"
	"testing"
)

type inner struct {
	xs []float64
	m  map[string]int
}

type textErr string

func (e textErr) Error() string { return string(e) }

type outer struct {
	Name string
	In   *inner
	Err  error
}

// TestDigestCanonical: the digest tells apart what a byte-exact pin must
// (nil and empty, +0 and -0, unexported fields, an error's dynamic type)
// and nothing else (map insertion order).
func TestDigestCanonical(t *testing.T) {
	base := func() outer {
		return outer{Name: "a", In: &inner{xs: []float64{1, 0}, m: map[string]int{"x": 1, "y": 2}}, Err: errors.New("e")}
	}
	want := Digest(base())
	same := base()
	same.In.m = map[string]int{"y": 2}
	same.In.m["x"] = 1
	if got := Digest(same); got != want {
		t.Errorf("map insertion order changed the digest")
	}
	for name, edit := range map[string]func(*outer){
		"name":            func(o *outer) { o.Name = "b" },
		"nil pointer":     func(o *outer) { o.In = nil },
		"nil slice":       func(o *outer) { o.In.xs = nil },
		"empty slice":     func(o *outer) { o.In.xs = []float64{} },
		"negative zero":   func(o *outer) { o.In.xs[1] = math.Copysign(0, -1) },
		"unexported map":  func(o *outer) { o.In.m["x"] = 3 },
		"error message":   func(o *outer) { o.Err = errors.New("f") },
		"error type":      func(o *outer) { o.Err = textErr("e") },
		"nil error":       func(o *outer) { o.Err = nil },
		"longer slice":    func(o *outer) { o.In.xs = append(o.In.xs, 0) },
		"nil map":         func(o *outer) { o.In.m = nil },
		"map of one less": func(o *outer) { delete(o.In.m, "y") },
	} {
		o := base()
		edit(&o)
		if Digest(o) == want {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}
