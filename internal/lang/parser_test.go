package lang

import (
	"strings"
	"testing"

	"specdis/internal/bench"
)

func parseOK(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestParseGlobals(t *testing.T) {
	p := parseOK(t, `
int scalar = 7;
float farr[4] = {1.0, 2.0, 3.0, 4.0};
int bare[10];
void main() {}
`)
	if len(p.Globals) != 3 {
		t.Fatalf("got %d globals", len(p.Globals))
	}
	g := p.Globals[0]
	if !g.IsScalar || g.Size != 1 || len(g.Init) != 1 {
		t.Errorf("scalar global parsed wrong: %+v", g)
	}
	if p.Globals[1].Size != 4 || len(p.Globals[1].Init) != 4 {
		t.Errorf("farr parsed wrong: %+v", p.Globals[1])
	}
	if p.Globals[2].Size != 10 || p.Globals[2].Init != nil {
		t.Errorf("bare parsed wrong: %+v", p.Globals[2])
	}
}

func TestParseFunctionShapes(t *testing.T) {
	p := parseOK(t, `
int f(int a, float b, int c[], float d[]) { return a; }
void g() {}
float h(float x) { return x; }
void main() {}
`)
	if len(p.Funcs) != 4 {
		t.Fatalf("got %d funcs", len(p.Funcs))
	}
	f := p.Funcs[0]
	wantTypes := []Type{TypeInt, TypeFloat, TypeIntArray, TypeFloatArray}
	for i, pr := range f.Params {
		if pr.Type != wantTypes[i] {
			t.Errorf("param %d type %v, want %v", i, pr.Type, wantTypes[i])
		}
	}
	if p.Funcs[1].Ret != TypeVoid || p.Funcs[2].Ret != TypeFloat {
		t.Error("return types parsed wrong")
	}
}

func TestParseStatements(t *testing.T) {
	p := parseOK(t, `
int a[4];
void main() {
	int x = 1;
	float y;
	x = 2;
	x += 3;
	x -= 1;
	x *= 2;
	x /= 2;
	x++;
	x--;
	a[x] = 5;
	a[x] += 1;
	if (x > 0) { x = 0; } else { x = 1; }
	if (x == 0) x = 9;
	while (x < 10) { x = x + 1; }
	for (int i = 0; i < 3; i = i + 1) { x = x + i; }
	for (x = 0; x < 2; x++) { }
	for (;;) { break; }
	print(x);
	print(y);
	return;
}
`)
	body := p.Funcs[0].Body
	if len(body.Stmts) < 15 {
		t.Fatalf("got %d statements", len(body.Stmts))
	}
	// ++ desugars to a compound assignment.
	inc := body.Stmts[7].(*AssignStmt)
	if inc.Op != '+' {
		t.Errorf("x++ desugared to %c", inc.Op)
	}
}

func TestParsePrecedence(t *testing.T) {
	p := parseOK(t, `void main() { int x = 1 + 2 * 3; int y = (1 + 2) * 3; int z = 1 < 2 && 3 < 4 || 5 == 5; }`)
	d := p.Funcs[0].Body.Stmts[0].(*VarDeclStmt)
	add := d.Init.(*BinaryExpr)
	if add.Op != TokPlus {
		t.Fatalf("top of 1+2*3 is %v", add.Op)
	}
	if mul := add.R.(*BinaryExpr); mul.Op != TokStar {
		t.Fatalf("rhs of + is %v", mul.Op)
	}
	d2 := p.Funcs[0].Body.Stmts[1].(*VarDeclStmt)
	if mul := d2.Init.(*BinaryExpr); mul.Op != TokStar {
		t.Fatalf("top of (1+2)*3 is %v", mul.Op)
	}
	d3 := p.Funcs[0].Body.Stmts[2].(*VarDeclStmt)
	if or := d3.Init.(*BinaryExpr); or.Op != TokOrOr {
		t.Fatalf("|| should bind loosest, got %v", or.Op)
	}
}

func TestParseUnary(t *testing.T) {
	p := parseOK(t, `void main() { int x = -1; int y = !x; int z = ~x; int w = - - 3; }`)
	stmts := p.Funcs[0].Body.Stmts
	if u := stmts[0].(*VarDeclStmt).Init.(*UnaryExpr); u.Op != '-' {
		t.Error("-1 not unary minus")
	}
	if u := stmts[1].(*VarDeclStmt).Init.(*UnaryExpr); u.Op != '!' {
		t.Error("!x not parsed")
	}
	if u := stmts[2].(*VarDeclStmt).Init.(*UnaryExpr); u.Op != '~' {
		t.Error("~x not parsed")
	}
}

func TestParseCalls(t *testing.T) {
	p := parseOK(t, `
int f(int a, int b) { return a + b; }
void main() {
	int x = f(1, 2);
	f(x, f(x, 3));
	float s = sqrt(2.0);
	int c = int(s);
	float g = float(c);
}
`)
	stmts := p.Funcs[1].Body.Stmts
	call := stmts[1].(*ExprStmt).X.(*CallExpr)
	if call.Name != "f" || len(call.Args) != 2 {
		t.Fatalf("call parsed wrong: %+v", call)
	}
	if inner := call.Args[1].(*CallExpr); inner.Name != "f" {
		t.Error("nested call lost")
	}
	if c := stmts[3].(*VarDeclStmt).Init.(*CallExpr); c.Name != "int" {
		t.Error("int() cast not parsed as call")
	}
	if c := stmts[4].(*VarDeclStmt).Init.(*CallExpr); c.Name != "float" {
		t.Error("float() cast not parsed as call")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"void main() {",                    // unterminated block
		"void main() { int; }",             // missing name
		"void main() { x = ; }",            // missing expr
		"void main() { if x { } }",         // missing parens
		"void main() { for (int i = 0) }",  // bad for
		"int a[0]; void main() {}",         // zero-size array
		"int a[-3]; void main() {}",        // negative size (lexes as [-, 3])
		"void v; void main() {}",           // void global
		"void main() { a[1][2] = 3; }",     // no 2-d syntax
		"int f(void x) { } void main() {}", // bad param type
		"void main() { return } ",          // missing semicolon
		"void main() { break }",            // missing semicolon
		"int g = ; void main() {}",         // missing initializer
		"int a[2] = {1,}; void main() {}",  // trailing comma
		"void main() { while () { } }",     // empty condition
		"void main() { print(); }",         // print needs a value
		"xyzzy",                            // garbage at top level
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseDanglingElse(t *testing.T) {
	p := parseOK(t, `void main() { if (1) if (2) print(1); else print(2); }`)
	outer := p.Funcs[0].Body.Stmts[0].(*IfStmt)
	if outer.Else != nil {
		t.Fatal("else bound to outer if")
	}
	inner := outer.Then.(*IfStmt)
	if inner.Else == nil {
		t.Fatal("else lost")
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Parse("void main() {\n  int x = ;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line 2 position: %v", err)
	}
}

// astSink keeps the benchmarked syntax trees live.
var astSink *Program

// BenchmarkParse lexes and parses every suite program.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range bench.Everything() {
			prog, err := Parse(p.Source)
			if err != nil {
				b.Fatal(err)
			}
			astSink = prog
		}
	}
}
