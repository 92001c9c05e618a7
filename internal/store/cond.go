package store

import (
	"fmt"

	"privacy3d/internal/dataset"
)

// Op is a comparison operator in a predicate condition.
type Op int

const (
	Lt Op = iota // <
	Le           // <=
	Gt           // >
	Ge           // >=
	Eq           // ==
	Ne           // !=
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Negate returns the complementary operator (¬(x < v) ≡ x >= v, …), the
// property the individual tracker attack exploits to express set
// differences with pure conjunctions.
func (o Op) Negate() Op {
	switch o {
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	case Eq:
		return Ne
	default:
		return Eq
	}
}

// Cond is one atomic condition: column OP value. For numeric columns V is
// used; for categorical columns S is used (with Str set) and only Eq/Ne are
// meaningful.
type Cond struct {
	Col string
	Op  Op
	V   float64
	S   string
	// Str marks the condition as a string comparison even when S is the
	// empty string. Without it `c = ""` and `c = 0` are indistinguishable
	// and would render to the same canonical string — which is the answer
	// cache and camouflage key, so the ambiguity was a correctness bug,
	// not a cosmetic one. A non-empty S implies a string comparison whether
	// or not Str is set, keeping hand-built literals working; and for
	// backward compatibility Compile still accepts a fully zero-valued
	// comparison (Str unset, S == "", V == 0) against a categorical column
	// as an empty-string comparison — only V != 0 is a kind mismatch. Note
	// that such a condition renders numerically (`c = 0`), so set Str when
	// an empty-string match is intended.
	Str bool
}

// IsString reports whether the condition carries a string value (S), as
// opposed to a numeric one (V).
func (c Cond) IsString() bool { return c.Str || c.S != "" }

// Negate returns the logical complement of the condition.
func (c Cond) Negate() Cond {
	c.Op = c.Op.Negate()
	return c
}

// String renders the condition kind-explicitly: string values are always
// quoted (including the empty string), numeric values never are, so two
// distinct conditions can never share a rendering.
func (c Cond) String() string {
	if c.IsString() {
		return fmt.Sprintf("%s %s %q", c.Col, c.Op, c.S)
	}
	return fmt.Sprintf("%s %s %g", c.Col, c.Op, c.V)
}

// CompileError reports a condition that does not compile against the
// schema. Msg is the reason without a package prefix, so callers that
// report predicate errors under their own name can reuse it.
type CompileError struct{ Msg string }

func (e *CompileError) Error() string { return "store: " + e.Msg }

func compileErrorf(format string, args ...any) error {
	return &CompileError{Msg: fmt.Sprintf(format, args...)}
}

// compiledCond is a condition resolved against the schema: column index,
// kind, and for categorical conditions the string value and, once a
// snapshot has resolved it, its dictionary code.
type compiledCond struct {
	col     int
	numeric bool
	op      Op
	v       float64
	s       string
	code    uint32
	codeOK  bool // s is present in the dictionary; if not, Eq matches nothing and Ne everything
}

// num applies the condition to a numeric value. Float comparisons give NaN
// exactly the semantics the index path reproduces (NaN fails everything
// except !=).
func (c *compiledCond) num(v float64) bool {
	switch c.op {
	case Lt:
		return v < c.v
	case Le:
		return v <= c.v
	case Gt:
		return v > c.v
	case Ge:
		return v >= c.v
	case Eq:
		return v == c.v
	default: // Ne; Compile rejects every other operator
		return v != c.v
	}
}

// cat applies the condition to the outcome of a categorical equality test.
func (c *compiledCond) cat(eq bool) bool { return eq == (c.op == Eq) }

// Compiled is a conjunction resolved once against a schema: column
// indices, kinds and operators are checked up front, so matching a row is
// pure comparisons with no lookups and no error paths.
type Compiled []compiledCond

// Compile resolves conds against attrs. Unknown columns and operators,
// ordered operators on categorical columns, and value/column kind
// mismatches are reported here, once, as a *CompileError.
func Compile(attrs []dataset.Attribute, conds []Cond) (Compiled, error) {
	out := make(Compiled, len(conds))
	for i, c := range conds {
		j := attrIndex(attrs, c.Col)
		if j < 0 {
			return nil, compileErrorf("unknown column %q", c.Col)
		}
		if c.Op < Lt || c.Op > Ne {
			return nil, compileErrorf("unknown operator %s", c.Op)
		}
		cc := compiledCond{col: j, op: c.Op}
		if attrs[j].Kind == dataset.Numeric {
			if c.IsString() {
				return nil, compileErrorf("string value %q for numeric column %q", c.S, c.Col)
			}
			cc.numeric = true
			cc.v = c.V
		} else {
			if c.Op != Eq && c.Op != Ne {
				return nil, compileErrorf("operator %s not valid for categorical column %q", c.Op, c.Col)
			}
			if !c.IsString() && c.V != 0 {
				return nil, compileErrorf("numeric value %g for categorical column %q", c.V, c.Col)
			}
			// A fully zero-valued Cond (Str unset, S=="", V==0) compiles as
			// an empty-string comparison — the behavior hand-built literals
			// had before Str existed.
			cc.s = c.S
		}
		out[i] = cc
	}
	return out, nil
}

// Match reports whether record i of d satisfies the conjunction. d must
// have the schema the conjunction was compiled against.
func (p Compiled) Match(d *dataset.Dataset, i int) bool {
	for k := range p {
		c := &p[k]
		if c.numeric {
			if !c.num(d.Float(i, c.col)) {
				return false
			}
		} else if !c.cat(d.Cat(i, c.col) == c.s) {
			return false
		}
	}
	return true
}

// matchRow is Match over dictionary-coded columns: the row-at-a-time
// evaluator shared by the open tail and the scan path.
func matchRow(cc Compiled, nums [][]float64, cats [][]uint32, i int) bool {
	for k := range cc {
		c := &cc[k]
		if c.numeric {
			if !c.num(nums[c.col][i]) {
				return false
			}
		} else if !c.cat(c.codeOK && cats[c.col][i] == c.code) {
			return false
		}
	}
	return true
}

// attrIndex returns the column index of name in attrs, or -1.
func attrIndex(attrs []dataset.Attribute, name string) int {
	for j, a := range attrs {
		if a.Name == name {
			return j
		}
	}
	return -1
}
