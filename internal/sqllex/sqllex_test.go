package sqllex

import (
	"strings"
	"testing"
	"testing/quick"

	"querc/internal/snowgen"
	"querc/internal/vec"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicSelect(t *testing.T) {
	toks := Tokenize("SELECT a, b FROM t WHERE x = 10", Options{})
	want := []Kind{Keyword, Ident, Punct, Ident, Keyword, Ident, Keyword, Ident, Operator, Number}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count: got %d want %d (%v)", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestFoldCase(t *testing.T) {
	toks := Tokenize("SELECT Foo FROM Bar", Options{FoldCase: true})
	if toks[0].Text != "select" || toks[1].Text != "foo" || toks[3].Text != "bar" {
		t.Fatalf("fold case: %v", toks)
	}
}

func TestNormalizeLiterals(t *testing.T) {
	a := Strings("select * from t where x = 42 and y = 'abc'", EmbeddingOptionsNormalized())
	b := Strings("select * from t where x = 99 and y = 'zzz'", EmbeddingOptionsNormalized())
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("normalized streams differ:\n%v\n%v", a, b)
	}
}

func TestStringLiterals(t *testing.T) {
	toks := Tokenize("select 'it''s' from t", Options{})
	if toks[1].Kind != String || toks[1].Text != "'it''s'" {
		t.Fatalf("escaped string: %v", toks[1])
	}
	// Unterminated string must not hang or panic.
	toks = Tokenize("select 'oops", Options{})
	if toks[1].Kind != String {
		t.Fatalf("unterminated string: %v", toks)
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	for _, src := range []string{`select "Col" from t`, "select `Col` from t", "select [Col] from t"} {
		toks := Tokenize(src, Options{})
		if toks[1].Kind != QuotedIdent {
			t.Fatalf("%q: got %v", src, toks[1])
		}
	}
}

func TestComments(t *testing.T) {
	toks := Tokenize("select 1 -- trailing\nfrom t /* block */ where x=1", Options{})
	for _, tok := range toks {
		if tok.Kind == Comment {
			t.Fatalf("comment leaked: %v", tok)
		}
	}
	toks = Tokenize("select 1 -- c", Options{KeepComments: true})
	if toks[len(toks)-1].Kind != Comment {
		t.Fatal("KeepComments should emit comment tokens")
	}
}

func TestNumbers(t *testing.T) {
	toks := Tokenize("select 1, 2.5, .5, 1e10, 3.2E-4", Options{})
	count := 0
	for _, tok := range toks {
		if tok.Kind == Number {
			count++
		}
	}
	if count != 5 {
		t.Fatalf("expected 5 numbers, got %d: %v", count, toks)
	}
}

func TestParams(t *testing.T) {
	toks := Tokenize("select * from t where a = ? and b = :name and c = $1 and d = @p", Options{})
	count := 0
	for _, tok := range toks {
		if tok.Kind == Param {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("expected 4 params, got %d: %v", count, toks)
	}
}

func TestOperators(t *testing.T) {
	toks := Tokenize("a <= b <> c || d :: e != f", Options{})
	var ops []string
	for _, tok := range toks {
		if tok.Kind == Operator {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<=", "<>", "||", "::", "!="}
	if strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Fatalf("operators: got %v want %v", ops, want)
	}
}

func TestDialectSamples(t *testing.T) {
	// Tokenization must be total across dialect quirks.
	samples := []string{
		"SELECT TOP 10 [Name] FROM [dbo].[Users] WHERE Age >= 21",
		"select * from t qualify row_number() over (partition by a order by b) = 1",
		`select c::varchar from t where s ilike '%x%' limit 5`,
		"WITH x AS (SELECT 1) SELECT * FROM x",
		"insert into t (a,b) values (1, 'x')",
	}
	for _, s := range samples {
		if toks := Tokenize(s, Options{FoldCase: true}); len(toks) == 0 {
			t.Fatalf("no tokens for %q", s)
		}
	}
}

// Property: tokenization is total and never produces empty token text.
func TestTokenizeTotal(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s, Options{KeepComments: true})
		for _, tok := range toks {
			if tok.Text == "" {
				return false
			}
			if tok.Pos < 0 || tok.Pos > len(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: token positions are strictly increasing.
func TestTokenPositionsMonotonic(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s, Options{KeepComments: true})
		for i := 1; i < len(toks); i++ {
			if toks[i].Pos <= toks[i-1].Pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: normalization is idempotent — tokenizing the joined normalized
// stream yields the same stream.
func TestNormalizationIdempotent(t *testing.T) {
	srcs := []string{
		"select a from t where x = 42",
		"SELECT sum(y) FROM t GROUP BY z HAVING sum(y) > 10 ORDER BY z",
		"select * from a join b on a.id = b.id where b.ts < '2019-01-01'",
	}
	for _, src := range srcs {
		first := Strings(src, EmbeddingOptionsNormalized())
		second := Strings(strings.Join(first, " "), EmbeddingOptionsNormalized())
		if strings.Join(first, "\x00") != strings.Join(second, "\x00") {
			t.Fatalf("not idempotent:\n%v\n%v", first, second)
		}
	}
}

func TestIsKeyword(t *testing.T) {
	if !IsKeyword("SELECT") || !IsKeyword("select") {
		t.Fatal("select must be a keyword in any case")
	}
	if IsKeyword("lineitem") {
		t.Fatal("lineitem must not be a keyword")
	}
}

// TestTokenizeAllocs pins the exact allocation count of Tokenize under the
// embedding profile over a fixed 200-query snowgen slice (2115, about 10.6
// per query): the token slice's append growth plus the lower-cased copies
// made for words that carry upper case.
func TestTokenizeAllocs(t *testing.T) {
	if vec.RaceEnabled {
		t.Skip("allocation profile differs under the race detector")
	}
	gen := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{{Name: "a", Users: 4, Queries: 200, SharedFraction: 0.3, Dialect: snowgen.DialectSnow}},
		Seed:     1,
	})
	if len(gen) != 200 {
		t.Fatalf("snowgen produced %d queries, want 200", len(gen))
	}
	opts := EmbeddingOptions()
	allocs := testing.AllocsPerRun(20, func() {
		for _, q := range gen {
			Tokenize(q.SQL, opts)
		}
	})
	if allocs > 2115 {
		t.Fatalf("Tokenize allocates %.0f over 200 queries (%.2f per query), want <= 2115", allocs, allocs/200)
	}
}
