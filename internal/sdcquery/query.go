// Package sdcquery implements the interactive statistical database of the
// paper's Section 3: users submit statistical queries (COUNT, SUM, AVG with
// predicates) and the data owner applies an inference-control strategy —
// query-set-size restriction, Chin–Ozsoyoglu auditing ([7]), output
// perturbation (Duncan & Mukherjee, [14]), interval camouflage (Gopal,
// Garfinkel & Goes, [16]), Denning's random sample queries, overlap
// restriction, or differential privacy (calibrated Laplace/Gaussian noise
// with a per-principal ε-budget ledger; see Protection and internal/dp).
// The server records every query it sees, which is precisely why this
// architecture offers no user privacy: "All SDC methods for interactive
// statistical databases assume that the data owner ... exactly knows the
// queries submitted by users."
//
// Queries are submitted with Server.Ask, or Server.AskAs when the caller
// has a budget-accounting identity — DifferentialPrivacy requires one and
// refuses anonymous queries with dp.ErrNoPrincipal; once a principal's ε
// budget is spent further queries fail with an error wrapping
// dp.ErrBudgetExhausted and release nothing.
//
// NewHandler exposes the server over HTTP. The untrusted-user surface
// (POST /query, POST /sql) goes through the configured inference control
// and, under DifferentialPrivacy, identifies callers by the
// X-Privacy3D-Principal header (429 with the remaining ε once the budget
// is spent). POST /protect — a seeded masked release of the served
// microdata — is an owner-only operation gated by the HandlerConfig
// bearer token and disabled entirely without one, and every release has
// Identifier-role columns stripped first: direct identifiers never ship,
// whatever masking method the owner picks.
//
// Query predicates are the store's predicate model: Op and Cond alias
// store.Op and store.Cond, and one compile step (store.Compile) validates
// a predicate for both the reference evaluator Query.Evaluate and the
// server's segment indexes, so the two report identical errors.
//
// The package also implements the Schlörer tracker attack ([22]) that makes
// size restriction alone insufficient.
package sdcquery

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"privacy3d/internal/dataset"
	"privacy3d/internal/store"
)

// Op, Cond and the operator constants are the store's (see the package
// doc).
type (
	Op   = store.Op
	Cond = store.Cond
)

const (
	Lt = store.Lt
	Le = store.Le
	Gt = store.Gt
	Ge = store.Ge
	Eq = store.Eq
	Ne = store.Ne
)

// Predicate is a conjunction of conditions; the empty predicate matches
// every record.
type Predicate []Cond

// String renders the predicate.
func (p Predicate) String() string {
	if len(p) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// And returns p extended with extra conditions.
func (p Predicate) And(conds ...Cond) Predicate {
	out := make(Predicate, 0, len(p)+len(conds))
	out = append(out, p...)
	out = append(out, conds...)
	return out
}

// compile resolves the predicate against a schema, reporting a condition
// that does not compile under this package's name.
func (p Predicate) compile(attrs []dataset.Attribute) (store.Compiled, error) {
	cp, err := store.Compile(attrs, p)
	return cp, predicateError(err)
}

// predicateError re-labels a store compile error with this package's
// prefix — the text clients have always received — and passes any other
// error through.
func predicateError(err error) error {
	var ce *store.CompileError
	if errors.As(err, &ce) {
		return errors.New("sdcquery: " + ce.Msg)
	}
	return err
}

// QuerySet returns the indices of records matching the predicate. The
// predicate is compiled once; the sweep is per-row comparisons only.
func (p Predicate) QuerySet(d *dataset.Dataset) ([]int, error) {
	cp, err := p.compile(d.Attrs())
	if err != nil {
		return nil, err
	}
	var rows []int
	for i := 0; i < d.Rows(); i++ {
		if cp.Match(d, i) {
			rows = append(rows, i)
		}
	}
	return rows, nil
}

// Agg is the aggregate function of a statistical query.
type Agg int

const (
	Count Agg = iota
	Sum
	Avg
)

// String renders the aggregate name.
func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Query is one statistical query: Agg(Attr) WHERE Where. COUNT ignores Attr.
type Query struct {
	Agg   Agg
	Attr  string
	Where Predicate
}

// String renders the query in SQL-ish form (used as the canonical key for
// logging and camouflage determinism).
func (q Query) String() string {
	attr := q.Attr
	if q.Agg == Count {
		attr = "*"
	}
	return fmt.Sprintf("SELECT %s(%s) WHERE %s", q.Agg, attr, q.Where)
}

// aggColumn validates the query's aggregate against the schema and returns
// the column index to sum, or -1 for COUNT (which reads no column). The
// server's bitmap path and Query.Evaluate share this validation, so both
// report identical errors.
func aggColumn(attrs []dataset.Attribute, q Query) (int, error) {
	if q.Agg == Count {
		return -1, nil
	}
	if q.Agg != Sum && q.Agg != Avg {
		return 0, fmt.Errorf("sdcquery: unsupported aggregate %v", q.Agg)
	}
	j := slices.IndexFunc(attrs, func(a dataset.Attribute) bool { return a.Name == q.Attr })
	if j < 0 {
		return 0, fmt.Errorf("sdcquery: unknown attribute %q", q.Attr)
	}
	if attrs[j].Kind != dataset.Numeric {
		return 0, fmt.Errorf("sdcquery: %s over non-numeric attribute %q", q.Agg, q.Attr)
	}
	return j, nil
}

// finishAgg turns the accumulated (count, sum) of a sweep into the query's
// answer — the single aggregate finisher shared by Query.Evaluate and the
// server's bitmap path, so every evaluator agrees byte for byte.
func finishAgg(agg Agg, count int, sum float64) (float64, error) {
	switch agg {
	case Count:
		return float64(count), nil
	case Sum:
		return sum, nil
	case Avg:
		if count == 0 {
			return 0, fmt.Errorf("sdcquery: AVG over empty query set")
		}
		return sum / float64(count), nil
	default:
		return 0, fmt.Errorf("sdcquery: unsupported aggregate %v", agg)
	}
}

// Evaluate computes the true (unprotected) answer of the query on d in one
// compiled sweep over the dataset's rows: the predicate is compiled once,
// and count and sum accumulate together row by row. It never touches the
// store's indexes, which makes it the reference the server's answers are
// checked against.
func (q Query) Evaluate(d *dataset.Dataset) (float64, error) {
	cp, err := q.Where.compile(d.Attrs())
	if err != nil {
		return 0, err
	}
	j, err := aggColumn(d.Attrs(), q)
	if err != nil {
		return 0, err
	}
	var count int
	var sum float64
	for i := 0; i < d.Rows(); i++ {
		if !cp.Match(d, i) {
			continue
		}
		count++
		if j >= 0 {
			sum += d.Float(i, j)
		}
	}
	return finishAgg(q.Agg, count, sum)
}
