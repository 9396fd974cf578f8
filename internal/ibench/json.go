package ibench

// JSON serialisation of scenarios, used by cmd/scenariogen and
// cmd/mapselect. Values are encoded with a one-byte kind prefix
// ("c:" constant, "n:" labelled null) so that ground and labelled
// instances round-trip unambiguously; tgds travel in their DSL form.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"schemamap/internal/data"
	"schemamap/internal/schema"
	"schemamap/internal/tgd"
)

type jsonRelation struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	Key   []int    `json:"key,omitempty"`
}

type jsonFK struct {
	FromRel  string `json:"fromRel"`
	FromCols []int  `json:"fromCols"`
	ToRel    string `json:"toRel"`
	ToCols   []int  `json:"toCols"`
}

type jsonSchema struct {
	Name      string         `json:"name"`
	Relations []jsonRelation `json:"relations"`
	FKs       []jsonFK       `json:"fks,omitempty"`
}

type jsonCorr struct {
	SourceRel string `json:"sourceRel"`
	SourcePos int    `json:"sourcePos"`
	TargetRel string `json:"targetRel"`
	TargetPos int    `json:"targetPos"`
}

type jsonScenario struct {
	Source      jsonSchema            `json:"source"`
	Target      jsonSchema            `json:"target"`
	I           map[string][][]string `json:"i"`
	J           map[string][][]string `json:"j"`
	Gold        []string              `json:"gold"`
	Candidates  []string              `json:"candidates"`
	GoldIndices []int                 `json:"goldIndices"`
	Corrs       []jsonCorr            `json:"corrs"`
	Noise       jsonNoise             `json:"noise"`
}

type jsonNoise struct {
	NoisyCorrs       int `json:"noisyCorrs"`
	DeletedErrors    int `json:"deletedErrors"`
	AddedUnexplained int `json:"addedUnexplained"`
}

// EncodeValue renders a value in the scenario wire encoding ("c:"
// constant, "n:" labelled null). internal/serve reuses it for target
// tuples travelling over the session API.
func EncodeValue(v data.Value) string {
	if v.IsNull() {
		return "n:" + v.Name()
	}
	return "c:" + v.Name()
}

// DecodeValue parses the EncodeValue wire form.
func DecodeValue(s string) (data.Value, error) {
	switch {
	case strings.HasPrefix(s, "c:"):
		return data.Const(s[2:]), nil
	case strings.HasPrefix(s, "n:"):
		return data.NullValue(s[2:]), nil
	}
	return data.Value{}, fmt.Errorf("ibench: bad value encoding %q", s)
}

func encodeSchema(s *schema.Schema) jsonSchema {
	out := jsonSchema{Name: s.Name}
	for _, r := range s.Relations() {
		out.Relations = append(out.Relations, jsonRelation{Name: r.Name, Attrs: r.Attrs, Key: r.Key})
	}
	for _, fk := range s.FKs() {
		out.FKs = append(out.FKs, jsonFK(fk))
	}
	return out
}

func decodeSchema(js jsonSchema) (*schema.Schema, error) {
	s := schema.New(js.Name)
	for _, r := range js.Relations {
		rel := schema.NewRelation(r.Name, r.Attrs...)
		rel.Key = r.Key
		if err := s.AddRelation(rel); err != nil {
			return nil, err
		}
	}
	for _, fk := range js.FKs {
		if err := s.AddFK(schema.ForeignKey(fk)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func encodeInstance(in *data.Instance) map[string][][]string {
	out := make(map[string][][]string)
	for _, rel := range in.Relations() {
		for _, t := range in.Tuples(rel) {
			row := make([]string, len(t.Args))
			for i, v := range t.Args {
				row[i] = EncodeValue(v)
			}
			out[rel] = append(out[rel], row)
		}
	}
	return out
}

// decodeInstance adds relations in sorted name order, so a decoded
// instance's relation and tuple order — and the J ids built on it —
// are the same on every decode.
func decodeInstance(m map[string][][]string) (*data.Instance, error) {
	in := data.NewInstance()
	rels := make([]string, 0, len(m))
	for rel := range m {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		for _, row := range m[rel] {
			args := make([]data.Value, len(row))
			for i, s := range row {
				v, err := DecodeValue(s)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			in.Add(data.Tuple{Rel: rel, Args: args})
		}
	}
	return in, nil
}

// MarshalScenario encodes the scenario as indented JSON.
func MarshalScenario(sc *Scenario) ([]byte, error) {
	js := jsonScenario{
		Source:      encodeSchema(sc.Source),
		Target:      encodeSchema(sc.Target),
		I:           encodeInstance(sc.I),
		J:           encodeInstance(sc.J),
		Gold:        sc.Gold.Strings(),
		Candidates:  sc.Candidates.Strings(),
		GoldIndices: sc.GoldIndices,
		Noise: jsonNoise{
			NoisyCorrs:       sc.NumNoisyCorrs,
			DeletedErrors:    sc.DeletedErrors,
			AddedUnexplained: sc.AddedUnexplained,
		},
	}
	for _, c := range sc.Corrs {
		js.Corrs = append(js.Corrs, jsonCorr(c))
	}
	return json.MarshalIndent(js, "", "  ")
}

// UnmarshalScenario decodes a scenario and validates mappings against
// the schemas.
func UnmarshalScenario(b []byte) (*Scenario, error) {
	var js jsonScenario
	if err := json.Unmarshal(b, &js); err != nil {
		return nil, fmt.Errorf("ibench: %w", err)
	}
	src, err := decodeSchema(js.Source)
	if err != nil {
		return nil, err
	}
	tgt, err := decodeSchema(js.Target)
	if err != nil {
		return nil, err
	}
	I, err := decodeInstance(js.I)
	if err != nil {
		return nil, err
	}
	J, err := decodeInstance(js.J)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{Source: src, Target: tgt, I: I, J: J, GoldIndices: js.GoldIndices}
	for _, s := range js.Gold {
		d, err := tgd.Parse(s)
		if err != nil {
			return nil, err
		}
		sc.Gold = append(sc.Gold, d)
	}
	for _, s := range js.Candidates {
		d, err := tgd.Parse(s)
		if err != nil {
			return nil, err
		}
		sc.Candidates = append(sc.Candidates, d)
	}
	for _, c := range js.Corrs {
		sc.Corrs = append(sc.Corrs, schema.Correspondence(c))
	}
	sc.NumNoisyCorrs = js.Noise.NoisyCorrs
	sc.DeletedErrors = js.Noise.DeletedErrors
	sc.AddedUnexplained = js.Noise.AddedUnexplained
	if err := sc.Gold.Validate(src, tgt); err != nil {
		return nil, err
	}
	if err := sc.Candidates.Validate(src, tgt); err != nil {
		return nil, err
	}
	for _, i := range sc.GoldIndices {
		if i < 0 || i >= len(sc.Candidates) {
			return nil, fmt.Errorf("ibench: gold index %d out of range", i)
		}
	}
	return sc, nil
}
