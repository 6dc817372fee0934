// A toy expression compiler instrumented with the lifetime recorder — the
// "optimizers and translators" workload from the paper's opening sentence.
//
// The compiler lexes and parses arithmetic expressions into AST nodes,
// constant-folds and value-numbers them (classic CSE), and emits stack
// code. Its allocation behaviour is textbook lifetime-prediction material:
//
//   - AST nodes, token strings, and folding temporaries die at the end of
//     each statement (short-lived, predictable by site);
//   - the symbol table and the emitted code buffer live to the end
//     (long-lived);
//   - the value-numbering table is per-function (medium-lived).
//
// The demo compiles a training translation unit, trains a predictor, and
// checks transfer onto a different unit, then sizes the heaps both ways.
//
//	go run ./examples/compiler
package main

import (
	"fmt"
	"log"
	"strings"

	lifetime "repro"
)

// ---- Compiler data structures (all heap cells go through the recorder) ----

type nodeKind uint8

const (
	nodeNum nodeKind = iota + 1
	nodeVar
	nodeBinop
)

type node struct {
	id    lifetime.ObjectID
	kind  nodeKind
	op    byte
	num   int64
	name  string
	l, r  *node
	value int // value number assigned by CSE
}

type compiler struct {
	rec *lifetime.Recorder

	symtab map[string]*symbol // long-lived
	code   []*instr           // long-lived
}

type symbol struct {
	id   lifetime.ObjectID
	name string
	slot int
}

type instr struct {
	id   lifetime.ObjectID
	text string
}

func newCompiler(input string) *compiler {
	return &compiler{
		rec:    lifetime.NewRecorder("exprc", input),
		symtab: make(map[string]*symbol),
	}
}

// ---- Allocation entry points, one function per node class ----

func (c *compiler) allocNode(k nodeKind) *node {
	defer c.rec.Exit(c.rec.Enter("allocNode"))
	return &node{id: c.rec.MallocTagged(48, 96), kind: k}
}

func (c *compiler) freeNode(n *node) {
	if n == nil {
		return
	}
	c.freeNode(n.l)
	c.freeNode(n.r)
	if err := c.rec.Free(n.id); err != nil {
		log.Fatalf("compiler node double free: %v", err)
	}
}

func (c *compiler) intern(name string) *symbol {
	defer c.rec.Exit(c.rec.Enter("intern"))
	if s, ok := c.symtab[name]; ok {
		return s
	}
	s := &symbol{
		id:   c.rec.MallocTagged(32+int64(len(name)), 400),
		name: name,
		slot: len(c.symtab),
	}
	c.symtab[name] = s
	return s
}

func (c *compiler) emit(text string) {
	defer c.rec.Exit(c.rec.Enter("emit"))
	c.code = append(c.code, &instr{
		id:   c.rec.MallocTagged(16+int64(len(text)), 40),
		text: text,
	})
}

// ---- Front end ----

type token struct {
	id   lifetime.ObjectID
	text string
}

// lex splits a statement into tokens; token cells are freed by the parser
// as it consumes them (very short-lived).
func (c *compiler) lex(src string) []*token {
	defer c.rec.Exit(c.rec.Enter("lex"))
	var toks []*token
	i := 0
	for i < len(src) {
		ch := src[i]
		switch {
		case ch == ' ':
			i++
			continue
		case ch >= '0' && ch <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, c.newToken(src[i:j]))
			i = j
		case ch >= 'a' && ch <= 'z':
			j := i
			for j < len(src) && src[j] >= 'a' && src[j] <= 'z' {
				j++
			}
			toks = append(toks, c.newToken(src[i:j]))
			i = j
		default:
			toks = append(toks, c.newToken(src[i:i+1]))
			i++
		}
	}
	return toks
}

func (c *compiler) newToken(text string) *token {
	defer c.rec.Exit(c.rec.Enter("newToken"))
	return &token{id: c.rec.MallocTagged(16+int64(len(text)), 20), text: text}
}

// parser is a tiny recursive-descent parser over the token slice.
type parser struct {
	c    *compiler
	toks []*token
	pos  int
}

func (p *parser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos].text
}

func (p *parser) next() string {
	t := p.toks[p.pos]
	p.pos++
	text := t.text
	if err := p.c.rec.Free(t.id); err != nil {
		log.Fatalf("token double free: %v", err)
	}
	return text
}

// expr := term (('+'|'-') term)*
func (p *parser) expr() *node {
	defer p.c.rec.Exit(p.c.rec.Enter("parseExpr"))
	n := p.term()
	for p.peek() == "+" || p.peek() == "-" {
		op := p.next()[0]
		bin := p.c.allocNode(nodeBinop)
		bin.op = op
		bin.l = n
		bin.r = p.term()
		n = bin
	}
	return n
}

// term := factor (('*'|'/') factor)*
func (p *parser) term() *node {
	defer p.c.rec.Exit(p.c.rec.Enter("parseTerm"))
	n := p.factor()
	for p.peek() == "*" || p.peek() == "/" {
		op := p.next()[0]
		bin := p.c.allocNode(nodeBinop)
		bin.op = op
		bin.l = n
		bin.r = p.factor()
		n = bin
	}
	return n
}

// factor := number | ident | '(' expr ')'
func (p *parser) factor() *node {
	defer p.c.rec.Exit(p.c.rec.Enter("parseFactor"))
	t := p.next()
	if t == "(" {
		n := p.expr()
		p.next() // ')'
		return n
	}
	if t[0] >= '0' && t[0] <= '9' {
		n := p.c.allocNode(nodeNum)
		fmt.Sscanf(t, "%d", &n.num)
		return n
	}
	n := p.c.allocNode(nodeVar)
	n.name = t
	p.c.intern(t)
	return n
}

// ---- Middle end ----

// fold performs constant folding, allocating replacement nodes and freeing
// the originals (optimizer churn).
func (c *compiler) fold(n *node) *node {
	defer c.rec.Exit(c.rec.Enter("fold"))
	if n.kind != nodeBinop {
		return n
	}
	n.l = c.fold(n.l)
	n.r = c.fold(n.r)
	if n.l.kind == nodeNum && n.r.kind == nodeNum {
		v := c.allocNode(nodeNum)
		switch n.op {
		case '+':
			v.num = n.l.num + n.r.num
		case '-':
			v.num = n.l.num - n.r.num
		case '*':
			v.num = n.l.num * n.r.num
		case '/':
			if n.r.num != 0 {
				v.num = n.l.num / n.r.num
			}
		}
		l, r := n.l, n.r
		n.l, n.r = nil, nil
		c.freeNode(l)
		c.freeNode(r)
		c.freeNode(n)
		return v
	}
	return n
}

// vnEntry is a value-numbering table entry (per-statement lifetime).
type vnEntry struct {
	id  lifetime.ObjectID
	key string
	num int
}

// cse assigns value numbers bottom-up; table entries are medium-lived
// (they die at statement end, after the whole expression is numbered).
func (c *compiler) cse(n *node, table map[string]*vnEntry) string {
	defer c.rec.Exit(c.rec.Enter("cse"))
	var key string
	switch n.kind {
	case nodeNum:
		key = fmt.Sprintf("#%d", n.num)
	case nodeVar:
		key = n.name
	case nodeBinop:
		lk := c.cse(n.l, table)
		rk := c.cse(n.r, table)
		key = fmt.Sprintf("(%s%c%s)", lk, n.op, rk)
	}
	e, ok := table[key]
	if !ok {
		e = &vnEntry{
			id:  c.rec.MallocTagged(24+int64(len(key)), 60),
			key: key,
			num: len(table),
		}
		table[key] = e
	}
	n.value = e.num
	return key
}

// ---- Back end ----

func (c *compiler) gen(n *node) {
	defer c.rec.Exit(c.rec.Enter("gen"))
	switch n.kind {
	case nodeNum:
		c.emit(fmt.Sprintf("push %d", n.num))
	case nodeVar:
		c.emit(fmt.Sprintf("load %d", c.symtab[n.name].slot))
	case nodeBinop:
		c.gen(n.l)
		c.gen(n.r)
		c.emit(fmt.Sprintf("op %c vn%d", n.op, n.value))
	}
}

// compileStmt runs the full pipeline on one statement.
func (c *compiler) compileStmt(src string) {
	defer c.rec.Exit(c.rec.Enter("compileStmt"))
	toks := c.lex(src)
	p := &parser{c: c, toks: toks}
	ast := p.expr()
	ast = c.fold(ast)
	table := make(map[string]*vnEntry)
	c.cse(ast, table)
	c.gen(ast)
	c.freeNode(ast)
	for _, e := range table {
		if err := c.rec.Free(e.id); err != nil {
			log.Fatalf("vn entry double free: %v", err)
		}
	}
}

// shutdown frees long-lived state and returns the trace.
func (c *compiler) shutdown() *lifetime.Trace {
	for name, s := range c.symtab {
		if err := c.rec.Free(s.id); err != nil {
			log.Fatal(err)
		}
		delete(c.symtab, name)
	}
	for _, ins := range c.code {
		if err := c.rec.Free(ins.id); err != nil {
			log.Fatal(err)
		}
	}
	c.code = nil
	return c.rec.Trace()
}

// ---- Inputs: two synthetic translation units ----

func statements(seed uint64, n int, vars []string) []string {
	out := make([]string, n)
	x := seed
	rnd := func(m int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(m))
	}
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth <= 0 || rnd(3) == 0 {
			if rnd(2) == 0 {
				return fmt.Sprintf("%d", rnd(100))
			}
			return vars[rnd(len(vars))]
		}
		ops := "+-*/"
		return fmt.Sprintf("(%s %c %s)", gen(depth-1), ops[rnd(4)], gen(depth-1))
	}
	for i := range out {
		out[i] = gen(4)
	}
	return out
}

func run(input string, stmts []string) *lifetime.Trace {
	c := newCompiler(input)
	main := c.rec.Enter("main")
	unit := c.rec.Enter("compileUnit")
	for _, s := range stmts {
		c.compileStmt(s)
	}
	c.rec.Exit(unit)
	c.rec.Exit(main)
	return c.shutdown()
}

func main() {
	trainTrace := run("train", statements(7, 2500, []string{"a", "b", "c", "d"}))
	testTrace := run("test", statements(1234, 2000, strings.Fields("x y z w v u")))

	for _, tr := range []*lifetime.Trace{trainTrace, testTrace} {
		st, err := lifetime.ComputeStats(tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s/%s: %d objects, %d bytes, max live %d bytes\n",
			tr.Program, tr.Input, st.TotalObjects, st.TotalBytes, st.MaxBytes)
	}

	pred, err := lifetime.Train(trainTrace, lifetime.DefaultProfileConfig())
	if err != nil {
		log.Fatal(err)
	}
	self, err := lifetime.Evaluate(trainTrace, pred)
	if err != nil {
		log.Fatal(err)
	}
	tru, err := lifetime.Evaluate(testTrace, pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npredictor: %d sites (complete chains)\n", pred.NumSites())
	fmt.Printf("self prediction: %5.1f%%   true prediction: %5.1f%% (error %.2f%%)\n",
		self.PredictedShortPct(), tru.PredictedShortPct(), tru.ErrorPct())
	fmt.Println("the compiler pipeline is input-independent, so complete chains transfer")
	fmt.Println("across translation units — the paper's GAWK case, unlike the interpreter demo.")

	ff, err := lifetime.Simulate(testTrace, lifetime.NewFirstFitAllocator(), nil)
	if err != nil {
		log.Fatal(err)
	}
	ar, err := lifetime.Simulate(testTrace, lifetime.NewArenaAllocator(), pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst-fit:  heap %4d KB, %5.1f instr per alloc+free\n",
		ff.MaxHeap>>10, lifetime.CostFirstFit(ff.Counts).Total())
	fmt.Printf("arena:      heap %4d KB, %5.1f instr per alloc+free, %.1f%% of allocs in arenas\n",
		ar.MaxHeap>>10, lifetime.CostArenaLen4(ar.Counts).Total(), ar.ArenaAllocPct)
}
