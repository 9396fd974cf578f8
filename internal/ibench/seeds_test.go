package ibench_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"schemamap/internal/bench"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/quality"
)

// fingerprint renders everything a solve depends on, in order: the
// scenario JSON (schemas, instances, candidates, gold) and the
// relation and tuple order of I and J, which fixes the J ids. JSON
// alone would miss the latter: it sorts object keys.
func fingerprint(t *testing.T, sc *ibench.Scenario) []byte {
	t.Helper()
	b, err := ibench.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(b)
	for _, in := range []*data.Instance{sc.I, sc.J} {
		buf.WriteString("\n" + strings.Join(in.Relations(), ","))
		for _, tu := range in.All() {
			buf.WriteString("\n" + tu.Key())
		}
	}
	return buf.Bytes()
}

// Equal seeds generate equal inputs: every quality-matrix cell and
// bench scale, plus the M spec at seed 1023 (whose candidates used to
// depend on map iteration order), generates the same scenario twice,
// and decoding its JSON twice yields the same instance order.
func TestEverySeedGeneratesTheSameScenario(t *testing.T) {
	type named struct {
		name string
		cfg  ibench.Config
	}
	var cfgs []named
	for _, c := range quality.Matrix() {
		cfg, err := c.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, named{"quality/" + c.Name, cfg})
	}
	for _, s := range bench.Scales() {
		if testing.Short() && s.Name == "L" {
			continue
		}
		cfgs = append(cfgs, named{"bench/" + s.Name, s.Config()})
	}
	m, err := bench.SpecFor("M")
	if err != nil {
		t.Fatal(err)
	}
	m.Seed = 1023
	cfgs = append(cfgs, named{"bench/M-seed1023", m.Config()})

	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			gen := func() *ibench.Scenario {
				sc, err := ibench.Generate(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sc
			}
			first, second := gen(), gen()
			a, b := fingerprint(t, first), fingerprint(t, second)
			if !bytes.Equal(a, b) {
				t.Fatalf("two generations differ: %s", firstDiff(a, b))
			}
			js, err := ibench.MarshalScenario(first)
			if err != nil {
				t.Fatal(err)
			}
			decode := func() []byte {
				sc, err := ibench.UnmarshalScenario(js)
				if err != nil {
					t.Fatal(err)
				}
				return fingerprint(t, sc)
			}
			if a, b := decode(), decode(); !bytes.Equal(a, b) {
				t.Fatalf("two decodes differ: %s", firstDiff(a, b))
			}
		})
	}
}

// firstDiff describes the first differing line of two fingerprints.
func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(la), len(lb))
}
