package lang

import (
	"strings"
	"testing"

	"specdis/internal/bench"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := LexAll("int x = 42 ;")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokKwInt, TokIdent, TokAssign, TokIntLit, TokSemi, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[3].Int != 42 {
		t.Errorf("literal = %d, want 42", toks[3].Int)
	}
}

func TestLexOperators(t *testing.T) {
	src := "== != <= >= && || << >> += -= *= /= ++ -- = + - * / % & | ^ ~ ! < >"
	toks, err := LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TokEq, TokNe, TokLe, TokGe, TokAndAnd, TokOrOr, TokShl, TokShr,
		TokPlusAssign, TokMinusAssign, TokStarAssign, TokSlashAssign,
		TokPlusPlus, TokMinusMinus,
		TokAssign, TokPlus, TokMinus, TokStar, TokSlash, TokPercent,
		TokAmp, TokPipe, TokCaret, TokTilde, TokBang, TokLt, TokGt, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexFloats(t *testing.T) {
	cases := map[string]float64{
		"1.5":    1.5,
		"0.25":   0.25,
		"3.":     3.0,
		"1e3":    1000,
		"2.5e-1": 0.25,
		"1E2":    100,
	}
	for src, want := range cases {
		toks, err := LexAll(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if toks[0].Kind != TokFloatLit {
			t.Fatalf("%q lexed as %v", src, toks[0].Kind)
		}
		if toks[0].Flt != want {
			t.Errorf("%q = %g, want %g", src, toks[0].Flt, want)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment with operators == != &&
int /* block
   spanning lines */ x;
`
	toks, err := LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokKwInt, TokIdent, TokSemi, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := LexAll("if iffy while whiles return returns for")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokKwIf, TokIdent, TokKwWhile, TokIdent, TokKwReturn, TokIdent, TokKwFor, TokEOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "int $x;", "/* unterminated"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("%q: expected error", src)
		} else if !strings.Contains(err.Error(), ":") {
			t.Errorf("%q: error lacks position: %v", src, err)
		}
	}
}

func TestLexHugeIntOverflow(t *testing.T) {
	if _, err := LexAll("99999999999999999999999999"); err == nil {
		t.Error("expected overflow error")
	}
}

// TestLexerAllocatesNothingPerToken pins the lexer's allocation cost on
// valid input: lexing the whole suite allocates nothing at all, so no token
// kind (keyword, identifier, literal or operator) costs an allocation.
func TestLexerAllocatesNothingPerToken(t *testing.T) {
	tokens := 0
	allocs := testing.AllocsPerRun(3, func() {
		tokens = 0
		for _, b := range bench.Everything() {
			l := NewLexer(b.Source)
			for {
				tok, err := l.Next()
				if err != nil {
					t.Fatalf("%s: %v", b.Name, err)
				}
				tokens++
				if tok.Kind == TokEOF {
					break
				}
			}
		}
	})
	if perToken := allocs / float64(tokens); perToken != 0 {
		t.Errorf("lexing the suite's %d tokens allocated %.0f times (%.3f per token), want 0", tokens, allocs, perToken)
	}
}

// TestLexAllAllocatesOncePerProgram pins LexAll's allocation cost: its
// token slice is sized from the source (tokenBound) before lexing, so each
// suite program costs one allocation, never a regrowth.
func TestLexAllAllocatesOncePerProgram(t *testing.T) {
	for _, b := range bench.Everything() {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := LexAll(b.Source); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: LexAll allocated %.0f times, want 1", b.Name, allocs)
		}
	}
}

// tokenSink keeps the benchmarked tokens live.
var tokenSink []Token

// BenchmarkLex lexes every suite program.
func BenchmarkLex(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range bench.Everything() {
			toks, err := LexAll(p.Source)
			if err != nil {
				b.Fatal(err)
			}
			tokenSink = toks
		}
	}
}
