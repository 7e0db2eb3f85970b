package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ssb"
)

// colRef is a resolved column reference.
type colRef struct {
	isFact bool
	dim    ssb.Dim
	col    string
}

// pred is one conjunct of the WHERE clause before classification.
type pred struct {
	left    colRef
	op      string // "=", "<", "<=", ">", ">=", "<>", "between", "in"
	joinRHS *colRef
	strVals []string
	intVals []int64
	isStr   bool
}

// aggItem is one parsed aggregate of the SELECT list. count(*) carries no
// operands; count(expr) parses its operands but compiles to the same
// COUNT(*) spec (SSBM measures are never NULL).
type aggItem struct {
	fn ssb.AggFunc
	a  colRef
	op byte // 0: fn(a); '*': fn(a*b); '-': fn(a-b)
	b  colRef
}

// stmt is the parsed and semantically resolved statement.
type stmt struct {
	aggs    []aggItem
	preds   []pred
	groupBy []colRef
	joins   map[ssb.Dim]bool
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks    []token
	i       int
	aliases map[string]string // alias -> canonical table name
	// The statement's scope is closed: every column resolved must belong
	// to a table FROM lists. listed marks the tables FROM names and firstUse
	// holds, per table, the first column resolved on it, both indexed by
	// tableIndex. They are checked once the statement is read, because the
	// SELECT list resolves before FROM.
	listed   [numTables]bool
	firstUse [numTables]struct{ table, text string }
}

// Parse compiles a statement in the SSBM dialect into an ssb.Query with the
// given id.
func Parse(id, src string) (*ssb.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, aliases: map[string]string{}}
	s, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return compile(id, s)
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// kw reports whether the current token is the given keyword and consumes it.
func (p *parser) kw(word string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("sql: expected %q at offset %d, found %q", word, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *parser) expectSym(sym string) error {
	t := p.cur()
	if (t.kind == tokSymbol || t.kind == tokOp) && t.text == sym {
		p.i++
		return nil
	}
	return fmt.Errorf("sql: expected %q at offset %d, found %q", sym, t.pos, t.text)
}

func (p *parser) parseStatement() (*stmt, error) {
	s := &stmt{joins: map[ssb.Dim]bool{}}
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	// SELECT list: one or more aggregates (sum/count/min/max) plus
	// optional output columns that must reappear in GROUP BY.
	var outputCols []string
	for {
		if fn, ok := p.aggKeyword(); ok {
			agg, err := p.parseAggExpr(fn)
			if err != nil {
				return nil, err
			}
			s.aggs = append(s.aggs, agg)
		} else {
			t := p.cur()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("sql: expected select item at offset %d", t.pos)
			}
			name, err := p.parseRefText()
			if err != nil {
				return nil, err
			}
			outputCols = append(outputCols, name)
		}
		// Optional AS alias on select items.
		if p.kw("as") {
			if p.cur().kind != tokIdent {
				return nil, fmt.Errorf("sql: expected alias after AS at offset %d", p.cur().pos)
			}
			p.next()
		}
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		break
	}
	if len(s.aggs) == 0 {
		return nil, fmt.Errorf("sql: SELECT list must contain at least one aggregate (sum/count/min/max)")
	}

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(); err != nil {
		return nil, err
	}

	if p.kw("where") {
		for {
			pr, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			s.preds = append(s.preds, pr)
			if !p.kw("and") {
				break
			}
		}
	}

	if p.kw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			name, err := p.parseRefText()
			if err != nil {
				return nil, err
			}
			ref, err := p.resolve(name)
			if err != nil {
				return nil, err
			}
			if ref.isFact {
				return nil, fmt.Errorf("sql: GROUP BY on fact column %q is not supported (SSBM groups on dimension attributes)", name)
			}
			s.groupBy = append(s.groupBy, ref)
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	// Output columns must be grouped.
	for _, oc := range outputCols {
		ref, err := p.resolve(oc)
		if err != nil {
			return nil, err
		}
		found := false
		for _, g := range s.groupBy {
			if g == ref {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sql: select item %q does not appear in GROUP BY", oc)
		}
	}

	// ORDER BY is parsed and discarded: results are canonically sorted.
	if p.kw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			if _, err := p.parseRefText(); err != nil {
				return nil, err
			}
			if p.kw("asc") || p.kw("desc") {
				// direction noted and ignored
			}
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if p.cur().kind == tokSymbol && p.cur().text == ";" {
		p.next()
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("sql: trailing input at offset %d: %q", p.cur().pos, p.cur().text)
	}

	for i, u := range p.firstUse {
		if u.text != "" && !p.listed[i] {
			// Clones: an error sharing p's strings would make escape
			// analysis move every parse's aliases map to the heap.
			return nil, fmt.Errorf("sql: column %q belongs to %s, which FROM does not list", strings.Clone(u.text), strings.Clone(u.table))
		}
	}

	// Move join-equality predicates out of preds into joins.
	var keep []pred
	for _, pr := range s.preds {
		if pr.joinRHS != nil {
			dim, err := classifyJoin(pr.left, *pr.joinRHS)
			if err != nil {
				return nil, err
			}
			s.joins[dim] = true
			continue
		}
		keep = append(keep, pr)
	}
	s.preds = keep
	return s, nil
}

// aggKeyword reports (and consumes) an aggregate function keyword when the
// current token is one of sum/count/min/max followed by "(".
func (p *parser) aggKeyword() (ssb.AggFunc, bool) {
	t := p.cur()
	if t.kind != tokIdent || p.i+1 >= len(p.toks) {
		return 0, false
	}
	nxt := p.toks[p.i+1]
	if !(nxt.kind == tokSymbol && nxt.text == "(") {
		return 0, false
	}
	var fn ssb.AggFunc
	switch strings.ToLower(t.text) {
	case "sum":
		fn = ssb.FuncSum
	case "count":
		fn = ssb.FuncCount
	case "min":
		fn = ssb.FuncMin
	case "max":
		fn = ssb.FuncMax
	default:
		return 0, false
	}
	p.i++
	return fn, true
}

// parseAggExpr parses the parenthesized body of an aggregate: a column, a
// column product or difference, or * for count(*).
func (p *parser) parseAggExpr(fn ssb.AggFunc) (aggItem, error) {
	agg := aggItem{fn: fn}
	if err := p.expectSym("("); err != nil {
		return agg, err
	}
	if t := p.cur(); fn == ssb.FuncCount && (t.kind == tokSymbol || t.kind == tokOp) && t.text == "*" {
		p.next()
		return agg, p.expectSym(")")
	}
	name, err := p.parseRefText()
	if err != nil {
		return agg, err
	}
	a, err := p.resolve(name)
	if err != nil {
		return agg, err
	}
	agg.a = a
	t := p.cur()
	if t.kind == tokSymbol && (t.text == "*" || t.text == "-") {
		agg.op = t.text[0]
		p.next()
		name, err := p.parseRefText()
		if err != nil {
			return agg, err
		}
		b, err := p.resolve(name)
		if err != nil {
			return agg, err
		}
		agg.b = b
	}
	return agg, p.expectSym(")")
}

// parseFrom reads the table list, registering aliases.
func (p *parser) parseFrom() error {
	for {
		t := p.cur()
		if t.kind != tokIdent {
			return fmt.Errorf("sql: expected table name at offset %d", t.pos)
		}
		table := strings.ToLower(t.text)
		canon, ok := canonicalTable(table)
		if !ok {
			return fmt.Errorf("sql: unknown table %q", t.text)
		}
		p.next()
		alias := canon
		if p.kw("as") {
			a := p.cur()
			if a.kind != tokIdent {
				return fmt.Errorf("sql: expected alias after AS at offset %d", a.pos)
			}
			alias = strings.ToLower(a.text)
			p.next()
		} else if p.cur().kind == tokIdent && !isClauseKeyword(p.cur().text) {
			alias = strings.ToLower(p.cur().text)
			p.next()
		}
		p.aliases[alias] = canon
		p.aliases[canon] = canon
		p.listed[tableIndex(canon)] = true
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		return nil
	}
}

func isClauseKeyword(s string) bool {
	switch strings.ToLower(s) {
	case "where", "group", "order", "as", "and":
		return true
	}
	return false
}

// parseRefText reads a possibly qualified column reference as raw text
// ("lo_revenue", "c.nation", "d_year").
func (p *parser) parseRefText() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected column reference at offset %d, found %q", t.pos, t.text)
	}
	p.next()
	name := t.text
	if p.cur().kind == tokSymbol && p.cur().text == "." {
		p.next()
		c := p.cur()
		if c.kind != tokIdent {
			return "", fmt.Errorf("sql: expected column after %q. at offset %d", name, c.pos)
		}
		p.next()
		name = name + "." + c.text
	}
	return name, nil
}

// parsePredicate reads one WHERE conjunct.
func (p *parser) parsePredicate() (pred, error) {
	var pr pred
	name, err := p.parseRefText()
	if err != nil {
		return pr, err
	}
	left, err := p.resolve(name)
	if err != nil {
		return pr, err
	}
	pr.left = left

	if p.kw("between") {
		pr.op = "between"
		if err := p.parseLiteralInto(&pr); err != nil {
			return pr, err
		}
		if err := p.expectKw("and"); err != nil {
			return pr, err
		}
		return pr, p.parseLiteralInto(&pr)
	}
	if p.kw("in") {
		pr.op = "in"
		if err := p.expectSym("("); err != nil {
			return pr, err
		}
		for {
			if err := p.parseLiteralInto(&pr); err != nil {
				return pr, err
			}
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.next()
				continue
			}
			break
		}
		return pr, p.expectSym(")")
	}

	t := p.cur()
	if t.kind != tokOp {
		return pr, fmt.Errorf("sql: expected comparison operator at offset %d, found %q", t.pos, t.text)
	}
	pr.op = t.text
	p.next()

	// Right side: literal or column (join).
	rt := p.cur()
	if rt.kind == tokIdent {
		rname, err := p.parseRefText()
		if err != nil {
			return pr, err
		}
		rref, err := p.resolve(rname)
		if err != nil {
			return pr, err
		}
		if pr.op != "=" {
			return pr, fmt.Errorf("sql: column-to-column predicate must be an equality join (offset %d)", rt.pos)
		}
		pr.joinRHS = &rref
		return pr, nil
	}
	return pr, p.parseLiteralInto(&pr)
}

// parseLiteralInto appends one literal (number or string) to the predicate.
// A predicate's literals are all numbers or all strings.
func (p *parser) parseLiteralInto(pr *pred) error {
	t := p.cur()
	if (t.kind == tokNumber && pr.isStr) || (t.kind == tokString && len(pr.intVals) > 0) {
		return fmt.Errorf("sql: literal %q at offset %d mixes strings and numbers in one predicate", t.text, t.pos)
	}
	switch t.kind {
	case tokNumber:
		// Columns are 32-bit: a wider literal would be truncated.
		v, err := strconv.ParseInt(t.text, 10, 32)
		if err != nil {
			return fmt.Errorf("sql: bad or out-of-range number %q at offset %d", t.text, t.pos)
		}
		pr.intVals = append(pr.intVals, v)
		p.next()
		return nil
	case tokString:
		pr.isStr = true
		pr.strVals = append(pr.strVals, t.text)
		p.next()
		return nil
	default:
		return fmt.Errorf("sql: expected literal at offset %d, found %q", t.pos, t.text)
	}
}
