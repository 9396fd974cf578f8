package data

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchTarget builds a J-like ground instance: two wide relations
// with many rows, the shape the cover analysis probes at scenario
// scale.
func benchTarget(rows int) *Instance {
	in := NewInstance()
	for i := 0; i < rows; i++ {
		in.Add(NewTuple("task", fmt.Sprintf("p%d", i%97), fmt.Sprintf("e%d", i%53), fmt.Sprintf("o%d", i)))
		in.Add(NewTuple("org", fmt.Sprintf("o%d", i), fmt.Sprintf("c%d", i%31)))
	}
	return in
}

// benchBlocks builds chase-like blocks: a constant-bearing tuple
// joined to a second tuple through a shared null.
func benchBlocks(n int) [][]Tuple {
	rng := rand.New(rand.NewSource(3))
	blocks := make([][]Tuple, n)
	for i := range blocks {
		o := NullValue(fmt.Sprintf("O%d", i))
		blocks[i] = []Tuple{
			{Rel: "task", Args: []Value{Const(fmt.Sprintf("p%d", rng.Intn(97))), Const(fmt.Sprintf("e%d", rng.Intn(53))), o}},
			{Rel: "org", Args: []Value{o, Const(fmt.Sprintf("c%d", rng.Intn(31)))}},
		}
	}
	return blocks
}

func BenchmarkEnumeratePartialHomsReference(b *testing.B) {
	target := benchTarget(500)
	blocks := benchBlocks(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, block := range blocks {
			EnumeratePartialHoms(block, target, 0, func(m BlockMatch) bool { return true })
		}
	}
}

func BenchmarkEnumeratePartialHomsIndexed(b *testing.B) {
	target := benchTarget(500)
	blocks := benchBlocks(64)
	s := NewSearcher(IndexTuples(target.All()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, block := range blocks {
			s.EnumeratePartialHoms(block, 0, func(m *IndexedMatch) bool { return true })
		}
	}
}

func BenchmarkTupleEmbedsReference(b *testing.B) {
	target := benchTarget(500)
	blocks := benchBlocks(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, block := range blocks {
			TupleEmbeds(block[0], target)
		}
	}
}

func BenchmarkTupleEmbedsIndexed(b *testing.B) {
	target := benchTarget(500)
	blocks := benchBlocks(64)
	ix := IndexTuples(target.All())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, block := range blocks {
			ix.Embeds(block[0], 0)
		}
	}
}
