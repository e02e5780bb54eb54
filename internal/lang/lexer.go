package lang

import "strconv"

// Lexer tokenizes MiniC source. // and /* */ comments are skipped.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func (l *Lexer) skipSpace() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			pos := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return errf(pos, "unterminated block comment")
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peek()

	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.off]
		if kw, ok := keywords[word]; ok {
			return Token{Kind: kw, Pos: pos, Text: word}, nil
		}
		return Token{Kind: TokIdent, Pos: pos, Text: word}, nil

	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		start := l.off
		isFloat := false
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.off < len(l.src) && l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.off < len(l.src) && (l.peek() == 'e' || l.peek() == 'E') {
			isFloat = true
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		text := l.src[start:l.off]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return Token{}, errf(pos, "bad float literal %q", text)
			}
			return Token{Kind: TokFloatLit, Pos: pos, Flt: f}, nil
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, errf(pos, "bad int literal %q", text)
		}
		return Token{Kind: TokIntLit, Pos: pos, Int: v}, nil
	}

	// Operators, longest match first. Text slices the source, so an
	// operator token allocates nothing.
	for n := min(2, len(l.src)-l.off); n >= 1; n-- {
		text := l.src[l.off : l.off+n]
		if k, ok := operators[text]; ok {
			for range n {
				l.advance()
			}
			return Token{Kind: k, Pos: pos, Text: text}, nil
		}
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// tokenBound sizes LexAll's token slice: one token per run of identifier
// characters and one per other non-space character outside // comments,
// plus EOF. That overcounts two-character operators, float literals and
// block comments, and undercounts only a literal run straight into an
// identifier ("2x"), so one allocation nearly always fits.
func tokenBound(src string) int {
	n := 1
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isIdentCont(c) && i > 0 && isIdentCont(src[i-1]):
		default:
			n++
		}
	}
	return n
}

// operators maps every operator spelling to its token kind.
var operators = map[string]TokKind{
	"==": TokEq, "!=": TokNe, "<=": TokLe, ">=": TokGe,
	"&&": TokAndAnd, "||": TokOrOr, "<<": TokShl, ">>": TokShr,
	"+=": TokPlusAssign, "-=": TokMinusAssign, "*=": TokStarAssign,
	"/=": TokSlashAssign, "++": TokPlusPlus, "--": TokMinusMinus,
	"(": TokLParen, ")": TokRParen, "{": TokLBrace, "}": TokRBrace,
	"[": TokLBracket, "]": TokRBracket, ",": TokComma, ";": TokSemi,
	"=": TokAssign, "+": TokPlus, "-": TokMinus, "*": TokStar,
	"/": TokSlash, "%": TokPercent, "&": TokAmp, "|": TokPipe,
	"^": TokCaret, "~": TokTilde, "!": TokBang, "<": TokLt, ">": TokGt,
}

// LexAll tokenizes the whole input (including the trailing EOF token).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	out := make([]Token, 0, tokenBound(src))
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
