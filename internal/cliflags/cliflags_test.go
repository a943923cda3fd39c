package cliflags

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"
)

type block struct {
	Steps   int       `json:"steps" help:"step count"`
	Weights []float64 `json:"weights,omitempty" help:"weights"`
	Seeds   []int64   `json:"seeds" help:"seeds"`
	Sizes   []int     `json:"sizes" help:"sizes"`
	Fast    bool      `json:"fast_path" help:"take the fast path"`
}

type doc struct {
	Kind   string  `json:"kind"`
	Ranks  int     `json:"ranks" help:"world size"`
	Seed   int64   `json:"seed" help:"seed"`
	Scale  float64 `json:"scale_factor" help:"scale"`
	hidden int
	Untag  int
	Skip   int    `json:"-"`
	Mine   *block `json:"mine,omitempty"`
	Other  *block `json:"other,omitempty"`
}

func bound(t *testing.T, defaults *doc) (*flag.FlagSet, *doc, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&out)
	dst := &doc{Kind: "k"}
	Bind(fs, dst, defaults)
	return fs, dst, &out
}

func TestBindParsesEveryWireTypeIntoTheStruct(t *testing.T) {
	fs, dst, _ := bound(t, &doc{Ranks: 512, Mine: &block{Steps: 1000}})
	err := fs.Parse([]string{"-ranks", "64", "-seed", "-7", "-scale-factor", "2.5",
		"-steps", "9", "-weights", "0.5, 1e3", "-seeds=133,134", "-sizes", "3", "-fast-path"})
	if err != nil {
		t.Fatal(err)
	}
	want := &doc{Kind: "k", Ranks: 64, Seed: -7, Scale: 2.5, Mine: &block{
		Steps: 9, Weights: []float64{0.5, 1000}, Seeds: []int64{133, 134}, Sizes: []int{3}, Fast: true}}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("parsed %+v (block %+v), want %+v (block %+v)", dst, dst.Mine, want, want.Mine)
	}
}

// An unset flag must leave its field zero, not the displayed default: the
// wire reads zero as "use the default", and a default may follow another
// field.
func TestBindLeavesUnsetFieldsZeroAndShowsTheDefaults(t *testing.T) {
	fs, dst, out := bound(t, &doc{Ranks: 512, Scale: 0.25, Mine: &block{Steps: 1000, Sizes: []int{500, 250}, Fast: true}})
	if err := fs.Parse([]string{"-steps", "200", "-sizes", "7", "-sizes", ""}); err != nil {
		t.Fatal(err)
	}
	want := &doc{Kind: "k", Mine: &block{Steps: 200, Sizes: []int{}}}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("parsed %+v (block %+v), want only -steps set", dst, dst.Mine)
	}
	fs.PrintDefaults()
	for _, line := range []string{
		"-ranks value\n    \tworld size (default 512)",
		"-scale-factor value\n    \tscale (default 0.25)",
		"-sizes value\n    \tsizes (default 500,250)",
		"-fast-path\n    \ttake the fast path (default true)",
		"-weights value\n    \tweights\n",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("help lacks %q:\n%s", line, out)
		}
	}
}

func TestBindSkipsWhatIsNotAWireScalar(t *testing.T) {
	fs, dst, _ := bound(t, &doc{Mine: &block{}})
	for _, name := range []string{"kind", "hidden", "Untag", "untag", "skip", "-", "mine", "other"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s registered", name)
		}
	}
	if dst.Mine == nil || dst.Other != nil {
		t.Errorf("blocks: mine %v other %v; want exactly the block the defaults carry", dst.Mine, dst.Other)
	}
}

func TestBindRejectsMalformedValues(t *testing.T) {
	for _, args := range [][]string{
		{"-ranks", "many"},
		{"-ranks", "1.5"},
		{"-scale-factor", "x"},
		{"-sizes", "1,two"},
		{"-seeds", "1;2"},
		{"-fast-path=perhaps"},
		{"-other-steps", "1"},
	} {
		fs, _, out := bound(t, &doc{Mine: &block{}})
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v parsed", args)
		} else if !strings.Contains(out.String(), strings.TrimLeft(strings.SplitN(args[0], "=", 2)[0], "-")) {
			t.Errorf("%v: error does not name the flag: %s", args, out)
		}
	}
}
