// Package cliflags is the flag form of a wire document: Bind walks a
// struct's JSON tags and registers one flag per field, so a command line
// and a JSON body are two spellings of the same value and a field added
// to the struct is a flag with no further edit. The wire's `snake_case`
// name becomes the `-kebab-case` flag, the field's `help` tag its usage
// text; ints, floats, bools and comma-separated slices of the first two
// are all the wire uses and all Bind knows.
package cliflags

import (
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
)

// Bind registers on fs one flag per JSON-tagged scalar or slice field of
// the struct dst points to, descending into every parameter block (a
// pointer to a struct) that defaults carries, which is allocated in dst
// when missing. Parsed values land in dst; a flag left unset leaves its
// field zero, which on the wire means "use the default", so defaults
// that follow another field keep following it. defaults, a value of
// dst's type, only supplies the defaults -help prints. Fields of any
// other type (a string, a block defaults leaves nil) get no flag.
func Bind(fs *flag.FlagSet, dst, defaults any) {
	bind(fs, reflect.ValueOf(dst).Elem(), reflect.ValueOf(defaults).Elem())
}

func bind(fs *flag.FlagSet, dst, defaults reflect.Value) {
	t := dst.Type()
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		f, d := dst.Field(i), defaults.Field(i)
		switch {
		case name == "" || name == "-":
		case f.Kind() == reflect.Pointer && f.Type().Elem().Kind() == reflect.Struct:
			if d.IsNil() {
				continue
			}
			if f.IsNil() {
				f.Set(reflect.New(f.Type().Elem()))
			}
			bind(fs, f.Elem(), d.Elem())
		case bindable(f.Type()):
			name = strings.ReplaceAll(name, "_", "-")
			fs.Var(field{f}, name, t.Field(i).Tag.Get("help"))
			fs.Lookup(name).DefValue = field{d}.String()
		}
	}
}

// bindable reports whether t is a scalar the wire uses or a slice of one.
func bindable(t reflect.Type) bool {
	if t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int64, reflect.Float64, reflect.Bool:
		return true
	}
	return false
}

// field is the flag.Value of one struct field. A flag's text is the
// field's JSON value, a slice's without the brackets, so the wire's own
// codec reads and prints it.
type field struct{ v reflect.Value }

// String is also called by the flag package on a zero field, to learn
// what "no default" looks like.
func (f field) String() string {
	if !f.v.IsValid() || f.v.Kind() == reflect.Slice && f.v.Len() == 0 {
		return ""
	}
	text, _ := json.Marshal(f.v.Interface()) // numbers and bools cannot fail
	return strings.Trim(string(text), "[]")
}

// Set replaces the field; an empty list clears a slice back to "use the
// default".
func (f field) Set(s string) error {
	if f.v.Kind() == reflect.Slice {
		s = "[" + s + "]"
	}
	if json.Unmarshal([]byte(s), f.v.Addr().Interface()) != nil {
		// The flag package prints the text and the flag's name around this.
		return fmt.Errorf("not a JSON %s", strings.ReplaceAll(f.v.Type().String(), "[]", "list of "))
	}
	return nil
}

// IsBoolFlag lets a bool field be set by the bare flag.
func (f field) IsBoolFlag() bool { return f.v.Kind() == reflect.Bool }
