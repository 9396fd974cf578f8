package data

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestReadCSV(t *testing.T) {
	src := "name,emp\nML,Alice\nBigData,Bob\n"
	tuples, err := ReadCSV(strings.NewReader(src), "proj", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("tuples = %d", len(tuples))
	}
	if !tuples[0].Equal(NewTuple("proj", "ML", "Alice")) {
		t.Errorf("tuple 0 = %v", tuples[0])
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	tuples, err := ReadCSV(strings.NewReader("a,b\nc,d\n"), "r", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("tuples = %d", len(tuples))
	}
}

func TestReadCSVNulls(t *testing.T) {
	tuples, err := ReadCSV(strings.NewReader("x,⊥N1\ny,_:N2\n"), "r", false)
	if err != nil {
		t.Fatal(err)
	}
	if !tuples[0].Args[1].IsNull() || tuples[0].Args[1].Name() != "N1" {
		t.Errorf("unicode null not parsed: %v", tuples[0])
	}
	if !tuples[1].Args[1].IsNull() || tuples[1].Args[1].Name() != "N2" {
		t.Errorf("rdf null not parsed: %v", tuples[1])
	}
}

func TestReadCSVRaggedRows(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\nc\n"), "r", false); err == nil {
		t.Error("ragged rows accepted")
	}
}

// Constants that collide with the null markers (or the escape itself)
// must survive a write/read cycle as constants — before the escape
// fix, a Const named "⊥x" or "_:x" was silently re-imported as a
// labelled null.
func TestCSVRoundTripAdversarialValues(t *testing.T) {
	adversarial := []Value{
		Const("⊥"),
		Const("⊥N1"),
		Const("_:b0"),
		Const("_:"),
		Const(`\`),
		Const(`\⊥x`),
		Const(`\\already`),
		Const("plain"),
		Const(""),
		Const("a,b\"quoted\nnewline"),
		NullValue("N1"),
		NullValue("⊥weird"),
		NullValue("_:strange"),
	}
	in := NewInstance()
	for i, v := range adversarial {
		in.Add(Tuple{Rel: "r", Args: []Value{Const(fmt.Sprintf("row%d", i)), v}})
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in, "r", nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), "r", false)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewInstance()
	rt.AddAll(back)
	if !rt.Equal(in) {
		t.Errorf("adversarial round trip changed instance:\n%v\nvs\n%v", rt, in)
	}
	// Every tuple must come back exactly (constants as constants,
	// nulls as nulls, labels intact).
	for _, tp := range back {
		if !in.Has(tp) {
			t.Errorf("tuple %v not in original", tp)
		}
	}
}

// A tuple whose fields are all empty constants must survive the round
// trip: it is written escaped (`\,\`), so the blank-record skip on
// import cannot swallow it.
func TestCSVRoundTripAllEmptyTuple(t *testing.T) {
	in := NewInstance()
	in.Add(Tuple{Rel: "r", Args: []Value{Const(""), Const("")}})
	in.Add(Tuple{Rel: "u", Args: []Value{Const("")}}) // single empty column
	for _, rel := range []string{"r", "u"} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, in, rel, nil); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(strings.NewReader(buf.String()), rel, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(in.Tuples(rel)) {
			t.Fatalf("%s: round trip kept %d of %d all-empty tuples (csv %q)",
				rel, len(back), len(in.Tuples(rel)), buf.String())
		}
		for _, tp := range back {
			if !in.Has(tp) {
				t.Errorf("%s: round trip changed tuple to %v", rel, tp)
			}
		}
	}
}

// formatCSVValue/parseCSVValue must be exact inverses on any value.
func TestCSVValueFormatParseInverse(t *testing.T) {
	values := []Value{
		Const("x"), Const("⊥x"), Const("_:x"), Const(`\x`), Const(`\`),
		Const("⊥"), Const("_:"), Const(""), NullValue("n"), NullValue("⊥"),
	}
	for _, v := range values {
		got := parseCSVValue(formatCSVValue(v))
		if got != v {
			t.Errorf("parse(format(%#v)) = %#v", v, got)
		}
	}
}

// With header=true the old code reported "row N" counted from the
// post-header slice, one less than the true file line; errors must now
// name the actual line.
func TestReadCSVErrorLineWithHeader(t *testing.T) {
	src := "h1,h2\na,b\nc\n" // bad record on file line 3
	_, err := ReadCSV(strings.NewReader(src), "r", true)
	if err == nil {
		t.Fatal("ragged row accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name file line 3", err)
	}
}

func TestReadCSVErrorLineNoHeader(t *testing.T) {
	src := "a,b\nc\n" // bad record on file line 2
	_, err := ReadCSV(strings.NewReader(src), "r", false)
	if err == nil {
		t.Fatal("ragged row accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name file line 2", err)
	}
}

// A leading blank row (a line of empty fields) must neither become a
// tuple nor pin the inferred width; blank rows elsewhere are skipped
// too, and later errors still report true line numbers.
func TestReadCSVBlankRows(t *testing.T) {
	src := "\"\"\na,b\n\nc,d\n" // line 1 blank-quoted, line 3 empty
	tuples, err := ReadCSV(strings.NewReader(src), "r", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 || len(tuples[0].Args) != 2 {
		t.Fatalf("tuples = %v", tuples)
	}
	// Width inference survives a blank first row; a ragged row after
	// blanks reports its true line.
	src = ",\na,b\ne,f,g\n"
	_, err = ReadCSV(strings.NewReader(src), "r", false)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v does not name file line 3", err)
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	in := NewInstance()
	in.Add(NewTuple("r", "b", "2"))
	in.Add(NewTuple("r", "a", "1"))
	in.Add(Tuple{Rel: "r", Args: []Value{Const("c"), NullValue("N1")}})

	var buf bytes.Buffer
	if err := WriteCSV(&buf, in, "r", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "x,y\n") {
		t.Errorf("missing header: %q", out)
	}
	// Sorted, stable output.
	if strings.Index(out, "a,1") > strings.Index(out, "b,2") {
		t.Errorf("not sorted: %q", out)
	}

	back, err := ReadCSV(strings.NewReader(out), "r", true)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewInstance()
	rt.AddAll(back)
	if !rt.Equal(in) {
		t.Errorf("round trip changed instance:\n%v\nvs\n%v", rt, in)
	}
}

// Quoted commas survive a CSV round trip as distinct facts.
func TestCSVRoundTripQuotedCommas(t *testing.T) {
	src := "\"x,y\",z\nx,\"y,z\"\n"
	tuples, err := ReadCSV(strings.NewReader(src), "R", false)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance()
	if n := in.AddAll(tuples); n != 2 {
		t.Fatalf("added %d of 2 distinct tuples", n)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in, "R", nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "R", false)
	if err != nil {
		t.Fatal(err)
	}
	out := NewInstance()
	out.AddAll(back)
	if !out.Equal(in) || out.Len() != 2 {
		t.Fatalf("round trip gave %v, want %v", out, in)
	}
}
