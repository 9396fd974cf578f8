package tgd

import (
	"reflect"
	"testing"
)

// FuzzParseMapping feeds arbitrary text to ParseMapping, the parser
// behind every mapping file a CLI reads (mapselect, exchange). It
// must never panic, and every tgd it accepts must survive a
// String → Parse round trip unchanged: the printed form is what
// reports and saved mappings carry. The seed corpus lives under
// testdata/fuzz/FuzzParseMapping.
func FuzzParseMapping(f *testing.F) {
	f.Add("proj(p, e, c) -> task(p, e, O) & org(O, c)\n# comment\n\ns(x,y) -> t(x,'k',y)")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseMapping(src)
		if err != nil {
			return
		}
		for _, d := range m {
			back, err := Parse(d.String())
			if err != nil {
				t.Fatalf("reparse of %q: %v", d.String(), err)
			}
			if !reflect.DeepEqual(back, d) {
				t.Fatalf("round trip changed the tgd:\n got  %#v\n want %#v", back, d)
			}
		}
	})
}
