package chase

import (
	"fmt"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

func TestCoreRetractsSubsumedBlock(t *testing.T) {
	// θ1 produces task(p,e,N); θ3 produces task(p,e,M) & org(M,c).
	// θ1's blocks embed into θ3's (N ↦ M), so the core drops them.
	I := data.NewInstance()
	I.Add(data.NewTuple("proj", "ML", "Alice", "SAP"))
	m := tgd.Mapping{
		tgd.MustParse("proj(p,e,c) -> task(p,e,O)"),
		tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,c)"),
	}
	res := Chase(I, m, nil)
	if res.Instance.Len() != 3 {
		t.Fatalf("chase len = %d, want 3", res.Instance.Len())
	}
	core := res.Core()
	if core.Len() != 2 {
		t.Fatalf("core len = %d, want 2 (θ1's tuple retracted):\n%v", core.Len(), core)
	}
	if len(core.Tuples("org")) != 1 || len(core.Tuples("task")) != 1 {
		t.Errorf("core shape wrong:\n%v", core)
	}
}

func TestCoreKeepsIncomparableBlocks(t *testing.T) {
	// Two firings over different constants are incomparable.
	I := data.NewInstance()
	I.Add(data.NewTuple("proj", "A", "x", "1"))
	I.Add(data.NewTuple("proj", "B", "y", "2"))
	res := ChaseOne(I, tgd.MustParse("proj(p,e,c) -> task(p,e,O)"), nil)
	core := res.Core()
	if core.Len() != 2 {
		t.Errorf("core len = %d, want 2:\n%v", core.Len(), core)
	}
}

func TestCoreKeepsFullTuples(t *testing.T) {
	// A null block that embeds into a full block retracts; the full
	// tuples always stay.
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "a", "b"))
	m := tgd.Mapping{
		tgd.MustParse("r(x,y) -> s(x,y)"), // full: s(a,b)
		tgd.MustParse("r(x,y) -> s(x,E)"), // null: s(a,N) ↦ s(a,b)
	}
	res := Chase(I, m, nil)
	core := res.Core()
	if core.Len() != 1 {
		t.Fatalf("core len = %d, want 1:\n%v", core.Len(), core)
	}
	if !core.Has(data.NewTuple("s", "a", "b")) {
		t.Errorf("core lost the full tuple:\n%v", core)
	}
}

func TestCoreIsUniversal(t *testing.T) {
	// The core must still embed the original instance (universality is
	// preserved): every original block embeds into the core.
	I := data.NewInstance()
	I.Add(data.NewTuple("proj", "ML", "Alice", "SAP"))
	I.Add(data.NewTuple("proj", "DB", "Bob", "IBM"))
	m := tgd.Mapping{
		tgd.MustParse("proj(p,e,c) -> task(p,e,O)"),
		tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,c)"),
		tgd.MustParse("proj(p,e,c) -> org(O,c)"),
	}
	res := Chase(I, m, nil)
	core := res.Core()
	s := data.NewSearcher(data.IndexTuples(core.All()))
	for bi, b := range res.Blocks {
		if !s.BlockEmbeds(b.Tuples) {
			t.Errorf("block %d no longer embeds into the core", bi)
		}
	}
	if core.Len() >= res.Instance.Len() {
		t.Errorf("core (%d) not smaller than chase (%d)", core.Len(), res.Instance.Len())
	}
}

func TestCoreIdempotentUnderNoRedundancy(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "a"))
	res := ChaseOne(I, tgd.MustParse("r(x) -> s(x,E)"), nil)
	core := res.Core()
	if !core.Equal(res.Instance) {
		t.Error("core changed a minimal instance")
	}
}

// A block must retract whenever a total embedding exists, however many
// partial matches a search meets first. d's block s(Y,w0) & r(Y)
// embeds only at the last of n decoy tuples s(x_i,w0), the one r(x)
// also holds; at n = 5,000 that is past DefaultHomLimit (4,096)
// matches of a partial enumeration, and the block must still go. The
// core is the n s tuples plus r(x_{n-1}).
func TestCoreRetractsPastPartialMatchCap(t *testing.T) {
	m := tgd.Mapping{
		tgd.MustParse("a(x,w) -> s(x,w)"),
		tgd.MustParse("c(x) -> r(x)"),
		tgd.MustParse("d(w) -> s(Y,w) & r(Y)"),
	}
	for _, n := range []int{4000, 5000} {
		I := data.NewInstance()
		for i := 0; i < n; i++ {
			I.Add(data.NewTuple("a", fmt.Sprintf("x%d", i), "w0"))
		}
		I.Add(data.NewTuple("c", fmt.Sprintf("x%d", n-1)))
		I.Add(data.NewTuple("d", "w0"))
		res := Chase(I, m, nil)
		if got := res.Instance.Len(); got != n+3 {
			t.Fatalf("n=%d: chase has %d tuples, want %d", n, got, n+3)
		}
		if got := res.Core().Len(); got != n+1 {
			t.Errorf("n=%d: core has %d tuples, want %d (d's block retracted)", n, got, n+1)
		}
	}
}
