package pag

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file implements a line-oriented text serialisation of Programs, so
// that benchmark PAGs can be generated once and re-analysed by the CLI
// tools (cmd/benchgen writes them, cmd/dynsum and cmd/pagstat read them).
//
// Format (one record per line, space-separated, names %-quoted):
//
//	pag v1 <name>
//	class <name> <parentIndex|-1>
//	method <name> <classIndex|-1>
//	field <name>
//	callsite <callerMethod> <name> <target>...
//	node local|global|object <method|-1> <class|-1> <name>
//	edge <kind> <src> <dst> [<label>]
//	bodyless <method> <blobObj> <blobVar> <ret|-1> <formal|-1>...
//	cast <var> <class> <name>
//	deref <var> <name>
//	factory <method> <retVar> <name>
//
// Fields are separated by runs of white space (unicode.IsSpace, as
// strings.Fields splits); blank lines and lines whose first field starts
// with '#' are skipped, and a line may hold at most 1<<24 - 1 bytes before
// its '\n'. Every number is a decimal int32.
//
// Range rules (the table references follow the ones FromImage applies to
// snapshots):
//
//   - an edge names nodes declared on earlier lines;
//   - a bodyless record names a method and nodes declared on earlier
//     lines (-1 allowed for the return and formal slots);
//   - a node's method and class, a class's parent and a method's class
//     are -1 or an entry of the complete table, which may be declared
//     further down (frontends declare classes before resolving parents);
//   - a call site's caller is -1 or any method ID, and its targets any
//     non-negative method ID: under dynamic loading they may name methods
//     a later delta epoch adds;
//   - load/store labels must name fields and entry/exit labels call sites
//     (Validate);
//   - client sites name entries of the complete tables (CheckSites).
//
// Encode emits records in dependency order. The bodyless record
// references the blob nodes MarkBodyless minted — they are ordinary node
// records — so decoding installs the recorded interface as-is instead of
// minting fresh blobs (node IDs must survive the round trip: the
// open-world soundness checker aligns stripped graphs with full-body
// oracles by ID).

const magic = "pag v1"

// Encode writes p to w in the textual PAG format.
func Encode(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	g := p.G
	fmt.Fprintf(bw, "%s %s\n", magic, quote(p.Name))
	for _, c := range g.classes {
		fmt.Fprintf(bw, "class %s %d\n", quote(c.Name), c.Parent)
	}
	for _, m := range g.methods {
		fmt.Fprintf(bw, "method %s %d\n", quote(m.Name), m.Class)
	}
	for _, f := range g.fields {
		fmt.Fprintf(bw, "field %s\n", quote(f))
	}
	for _, cs := range g.callSites {
		fmt.Fprintf(bw, "callsite %d %s", cs.Caller, quote(cs.Name))
		for _, t := range cs.Targets {
			fmt.Fprintf(bw, " %d", t)
		}
		fmt.Fprintln(bw)
	}
	for _, n := range g.nodes {
		fmt.Fprintf(bw, "node %s %d %d %s\n", n.Kind, n.Method, n.Class, quote(n.Name))
	}
	for _, e := range g.Edges() {
		if e.Label == NoLabel {
			fmt.Fprintf(bw, "edge %s %d %d\n", e.Kind, e.Src, e.Dst)
		} else {
			fmt.Fprintf(bw, "edge %s %d %d %d\n", e.Kind, e.Src, e.Dst, e.Label)
		}
	}
	for _, m := range g.BodylessMethods() {
		info := g.bodyless[m]
		fmt.Fprintf(bw, "bodyless %d %d %d %d", m, info.BlobObj, info.BlobVar, info.Ret)
		for _, f := range info.Formals {
			fmt.Fprintf(bw, " %d", f)
		}
		fmt.Fprintln(bw)
	}
	for _, c := range p.Casts {
		fmt.Fprintf(bw, "cast %d %d %s\n", c.Var, c.Target, quote(c.Name))
	}
	for _, d := range p.Derefs {
		fmt.Fprintf(bw, "deref %d %s\n", d.Var, quote(d.Name))
	}
	for _, f := range p.Factories {
		fmt.Fprintf(bw, "factory %d %d %s\n", f.Method, f.Ret, quote(f.Name))
	}
	return bw.Flush()
}

// maxLine bounds the length of one input line (its '\n' excluded).
const maxLine = 1 << 24

// Decode reads a Program in the textual PAG format and returns it frozen.
//
// Decoding is one streaming pass: lines are split in place, integers
// parsed by a byte loop, node names collected into one arena, and edge
// records appended to the graph's edge list as they come, repeats
// included. Freeze then lays the list out, as it does for every built
// graph. Every reference is range-checked; an error names the offending
// line. On soot-c at scale 1 (9.5 MB, 115k nodes, 252k edges) a
// decode takes about 85 ms on a 2-vCPU Intel Xeon and makes 55k
// allocations, 0.22 per edge (BenchmarkDecode/scale=1).
func Decode(r io.Reader) (*Program, error) {
	d := &decoder{br: bufio.NewReaderSize(r, 1<<16), g: NewGraph()}
	d.p = NewProgram("", d.g)
	d.nodeMethod = fwdRef{what: "node method", low: -1, top: -1}
	d.nodeClass = fwdRef{what: "node class", low: -1, top: -1}
	d.classParent = fwdRef{what: "class parent", low: -1, top: -1}
	d.methodClass = fwdRef{what: "method class", low: -1, top: -1}
	d.castVar = fwdRef{what: "cast variable", top: -1}
	d.castClass = fwdRef{what: "cast class", top: -1}
	d.derefVar = fwdRef{what: "deref variable", top: -1}
	d.factoryMethod = fwdRef{what: "factory method", top: -1}
	d.factoryRet = fwdRef{what: "factory return", top: -1}
	if err := d.read(); err != nil {
		return nil, err
	}
	return d.finish()
}

// decoder is the state of one Decode call.
type decoder struct {
	br     *bufio.Reader
	long   []byte   // a line longer than br's buffer, reassembled
	fields [][]byte // the current line's fields, aliasing its bytes
	lineno int

	g *Graph
	p *Program

	// nodes are the node records read so far and names their name arena;
	// finish turns both into the graph's node table, with one string
	// allocation for all the names.
	nodes []nodeRec
	names []byte

	// References the input may make to table entries declared further
	// down (a class's parent may follow it, a client site its node),
	// checked at the end.
	nodeMethod, nodeClass, classParent, methodClass         fwdRef
	castVar, castClass, derefVar, factoryMethod, factoryRet fwdRef

	err error // the first error reading the current record's fields
}

// nodeRec is a node record as read: Node without its name, which ends at
// nameEnd in the name arena (and starts where the previous one ended).
// Being pointer-free, the growing record array costs the collector nothing.
type nodeRec struct {
	kind    NodeKind
	method  MethodID
	class   ClassID
	nameEnd int32
}

// maxNames bounds the name arena, so that nodeRec.nameEnd fits.
const maxNames = math.MaxInt32

// fwdRef tracks one kind of table reference: the largest ID it names and
// the first line naming it. A reference is in range iff it is at least
// low and that ID is below the complete table's length.
type fwdRef struct {
	what string
	low  int32 // -1 where the reference may name no entry, else 0
	top  int32
	line int
}

// read consumes the input: the header, then one record per line.
func (d *decoder) read() error {
	header := false
	for {
		line, ok, err := d.nextLine()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		d.split(line)
		f := d.fields
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		if !header {
			if len(f) < 3 || string(f[0]) != "pag" || string(f[1]) != "v1" {
				return d.fail("bad header %q, want %q", strings.TrimSpace(string(line)), magic)
			}
			name, err := unquote(string(f[2]))
			if err != nil {
				return d.fail("bad program name: %v", err)
			}
			d.p.Name = name
			header = true
			continue
		}
		if err := d.record(); err != nil {
			return d.fail("%v", err)
		}
	}
	if !header {
		return fmt.Errorf("pag: empty input")
	}
	return nil
}

func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("pag: line %d: %s", d.lineno, fmt.Sprintf(format, args...))
}

// nextLine returns the next line without its '\n'; ok is false at the end
// of the input. The line aliases the reader's buffer until the next call.
func (d *decoder) nextLine() (line []byte, ok bool, err error) {
	line, err = d.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.long = append(d.long[:0], line...)
		for err == bufio.ErrBufferFull && len(d.long) <= maxLine {
			line, err = d.br.ReadSlice('\n')
			d.long = append(d.long, line...)
		}
		line = d.long
	}
	if err == io.EOF && len(line) == 0 {
		return nil, false, nil
	}
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return nil, false, err
	}
	d.lineno++
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if len(line) >= maxLine {
		return nil, false, fmt.Errorf("pag: line %d: %w", d.lineno, bufio.ErrTooLong)
	}
	return line, true, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split cuts line into d.fields at runs of white space. An all-ASCII line
// is split in place; a line holding any byte >= 0x80 goes through
// bytes.Fields, whose unicode.IsSpace rule is strings.Fields', so the
// format tokenises exactly as under a strings.Fields split of every line.
func (d *decoder) split(line []byte) {
	d.fields = d.fields[:0]
	start := -1
	for i, c := range line {
		if c >= utf8.RuneSelf {
			d.fields = append(d.fields[:0], bytes.Fields(line)...)
			return
		}
		if asciiSpace[c] {
			if start >= 0 {
				d.fields = append(d.fields, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		d.fields = append(d.fields, line[start:])
	}
}

// record decodes the current line's record into the program.
func (d *decoder) record() error {
	f, g := d.fields, d.g
	d.err = nil
	switch string(f[0]) {
	case "class":
		if len(f) != 3 {
			return errors.New("class wants 2 args")
		}
		name, parent := d.name(1), d.ref(&d.classParent, 2)
		if d.err == nil {
			g.AddClass(name, ClassID(parent))
		}
	case "method":
		if len(f) != 3 {
			return errors.New("method wants 2 args")
		}
		name, class := d.name(1), d.ref(&d.methodClass, 2)
		if d.err == nil {
			g.AddMethod(name, ClassID(class))
		}
	case "field":
		if len(f) != 2 {
			return errors.New("field wants 1 arg")
		}
		if name := d.name(1); d.err == nil {
			g.AddField(name)
		}
	case "callsite":
		if len(f) < 3 {
			return errors.New("callsite wants >=2 args")
		}
		// Callers and targets may name methods a later delta epoch loads
		// (the dynamic-loading model), so only negatives are out of range.
		caller := d.int(1)
		if d.err == nil && MethodID(caller) < NoMethod {
			return fmt.Errorf("callsite caller %d out of range", caller)
		}
		name := d.name(2)
		if d.err != nil {
			return d.err
		}
		cs := g.AddCallSite(MethodID(caller), name)
		for i := 3; i < len(f); i++ {
			m := d.int(i)
			if d.err != nil {
				return d.err
			}
			if m < 0 {
				return fmt.Errorf("callsite target %d out of range", m)
			}
			g.AddCallTarget(cs, MethodID(m))
		}
	case "node":
		if len(f) != 5 {
			return errors.New("node wants 4 args")
		}
		var kind NodeKind
		switch string(f[1]) {
		case "local":
			kind = Local
		case "global":
			kind = Global
		case "object":
			kind = Object
		default:
			return fmt.Errorf("bad node kind %q", f[1])
		}
		method, class := d.ref(&d.nodeMethod, 2), d.ref(&d.nodeClass, 3)
		if d.err != nil {
			return d.err
		}
		if d.names, d.err = appendUnquoted(d.names, f[4]); d.err != nil {
			return d.err
		}
		if len(d.names) > maxNames {
			return fmt.Errorf("node names exceed %d bytes", maxNames)
		}
		d.nodes = append(grow(d.nodes), nodeRec{kind, MethodID(method), ClassID(class), int32(len(d.names))})
	case "edge":
		if len(f) != 4 && len(f) != 5 {
			return errors.New("edge wants 3 or 4 args")
		}
		kind, err := parseEdgeKind(f[1])
		if err != nil {
			return err
		}
		src, dst, label := d.int(2), d.int(3), NoLabel
		if len(f) == 5 {
			label = d.int(4)
		}
		if d.err != nil {
			return d.err
		}
		if n := len(d.nodes); src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
			return fmt.Errorf("edge endpoint out of range: %d -> %d (have %d nodes)", src, dst, n)
		}
		g.edges = append(grow(g.edges), Edge{Src: NodeID(src), Dst: NodeID(dst), Kind: kind, Label: label})
	case "bodyless":
		if len(f) < 5 {
			return errors.New("bodyless wants >=4 args")
		}
		ids := make([]int32, len(f)-1)
		for i := range ids {
			ids[i] = d.int(i + 1)
		}
		if d.err != nil {
			return d.err
		}
		m := MethodID(ids[0])
		if m < 0 || int(m) >= len(g.methods) {
			return fmt.Errorf("bodyless method %d out of range", m)
		}
		if _, dup := g.bodyless[m]; dup {
			return fmt.Errorf("method %d marked bodyless twice", m)
		}
		node := func(v int32, what string, allowNone bool) (NodeID, error) {
			if NodeID(v) == NoNode && allowNone {
				return NoNode, nil
			}
			if v < 0 || int(v) >= len(d.nodes) {
				return NoNode, fmt.Errorf("bodyless %s node %d out of range", what, v)
			}
			return NodeID(v), nil
		}
		// The blob nodes were minted by MarkBodyless before encoding and
		// arrive as ordinary node records; install the interface as-is so
		// node IDs survive the round trip.
		blobObj, err := node(ids[1], "blob-object", false)
		if err != nil {
			return err
		}
		blobVar, err := node(ids[2], "blob-variable", false)
		if err != nil {
			return err
		}
		ret, err := node(ids[3], "return", true)
		if err != nil {
			return err
		}
		info := BodylessInfo{Ret: ret, BlobObj: blobObj, BlobVar: blobVar}
		for _, v := range ids[4:] {
			f, err := node(v, "formal", true)
			if err != nil {
				return err
			}
			info.Formals = append(info.Formals, f)
		}
		if g.bodyless == nil {
			g.bodyless = make(map[MethodID]BodylessInfo)
		}
		g.bodyless[m] = info
	case "cast":
		if len(f) != 4 {
			return errors.New("cast wants 3 args")
		}
		c := CastSite{Var: NodeID(d.ref(&d.castVar, 1)), Target: ClassID(d.ref(&d.castClass, 2)), Name: d.name(3)}
		if d.err == nil {
			d.p.Casts = append(d.p.Casts, c)
		}
	case "deref":
		if len(f) != 3 {
			return errors.New("deref wants 2 args")
		}
		s := DerefSite{Var: NodeID(d.ref(&d.derefVar, 1)), Name: d.name(2)}
		if d.err == nil {
			d.p.Derefs = append(d.p.Derefs, s)
		}
	case "factory":
		if len(f) != 4 {
			return errors.New("factory wants 3 args")
		}
		s := FactorySite{Method: MethodID(d.ref(&d.factoryMethod, 1)), Ret: NodeID(d.ref(&d.factoryRet, 2)), Name: d.name(3)}
		if d.err == nil {
			d.p.Factories = append(d.p.Factories, s)
		}
	default:
		return fmt.Errorf("unknown record %q", f[0])
	}
	return d.err
}

// int parses field i of the current record as a decimal int32. Like name
// and ref, it keeps the record's first error in d.err and does nothing
// once there is one, so a record's fields can be read in one expression
// and checked once.
func (d *decoder) int(i int) int32 {
	if d.err != nil {
		return 0
	}
	v, err := parseInt32(d.fields[i])
	d.err = err
	return v
}

// parseInt32 parses b as strconv.ParseInt(string(b), 10, 32) does, with
// the same value and the same error. An optional '-' and one to nine
// digits, which cannot overflow, are parsed by a byte loop; anything else
// (a '+' sign, a longer number, junk) goes to ParseInt. The string
// conversion does not escape ParseInt, so it costs no allocation.
func parseInt32(b []byte) (int32, error) {
	digits := b
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if n := len(digits); n > 0 && n <= 9 {
		var v int32
		i := 0
		for ; i < n && '0' <= digits[i] && digits[i] <= '9'; i++ {
			v = v*10 + int32(digits[i]-'0')
		}
		if i == n {
			if n < len(b) {
				v = -v
			}
			return v, nil
		}
	}
	v, err := strconv.ParseInt(string(b), 10, 32)
	return int32(v), err
}

// name unquotes field i of the current record.
func (d *decoder) name(i int) string {
	if d.err != nil {
		return ""
	}
	s, err := unquote(string(d.fields[i]))
	d.err = err
	return s
}

// ref parses field i of the current record as a reference of kind r.
func (d *decoder) ref(r *fwdRef, i int) int32 {
	id := d.int(i)
	if d.err == nil && id < r.low {
		d.err = fmt.Errorf("%s %d out of range", r.what, id)
	}
	if d.err == nil && id > r.top {
		r.top, r.line = id, d.lineno
	}
	return id
}

// finish checks the forward references, then fills the node table and
// edge list from the collected records and freezes the graph.
func (d *decoder) finish() (*Program, error) {
	g := d.g
	for _, c := range []struct {
		r *fwdRef
		n int
	}{
		{&d.nodeMethod, len(g.methods)},
		{&d.nodeClass, len(g.classes)},
		{&d.classParent, len(g.classes)},
		{&d.methodClass, len(g.classes)},
		{&d.castVar, len(d.nodes)},
		{&d.castClass, len(g.classes)},
		{&d.derefVar, len(d.nodes)},
		{&d.factoryMethod, len(g.methods)},
		{&d.factoryRet, len(d.nodes)},
	} {
		if r := c.r; int(r.top) >= c.n {
			return nil, fmt.Errorf("pag: line %d: %s %d out of range (have %d)", r.line, r.what, r.top, c.n)
		}
	}

	names := string(d.names)
	if len(d.nodes) > 0 { // an empty table stays nil, as under AddNode
		g.nodes = make([]Node, len(d.nodes))
	}
	start := int32(0)
	for i, r := range d.nodes {
		g.nodes[i] = Node{Kind: r.kind, Method: r.method, Class: r.class, Name: names[start:r.nameEnd]}
		start = r.nameEnd
	}

	g.flags = make([]nodeFlags, len(g.nodes))
	// Re-intern derived identifiers present in the tables.
	g.ResolveDerived()
	g.Freeze()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return d.p, nil
}

// grow doubles the capacity of a full slice ahead of an append. The
// decoder's record arrays reach hundreds of thousands of entries, where
// append's 1.25x steps would copy each entry about five times.
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		return slices.Grow(s, len(s))
	}
	return s
}

// shortSpan is the longest source span dropRepeats checks against its own
// prefix; a longer one is sorted instead.
const shortSpan = 16

// dropRepeats drops every edge that repeats an earlier one and compacts
// edges in place, so the rest stay in the order the list first names
// them. Repeats share a source, so a counting pass groups the
// edge indices by source, each group in file order, and each group is
// checked on its own: a short one against its own prefix, a long one by
// sorting a copy of its indices, so a hub node costs n log n, not n².
// A repeat is marked by its source becoming NoNode.
func dropRepeats(n int, edges []Edge) []Edge {
	start := make([]int32, n+1)
	for _, e := range edges {
		start[e.Src]++
	}
	for v := 1; v <= n; v++ {
		start[v] += start[v-1]
	}
	// Filling backwards from each span's end leaves start[v] at the span's
	// first index and the span in file order.
	bySrc := make([]int32, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		v := edges[i].Src
		start[v]--
		bySrc[start[v]] = int32(i)
	}
	var sorted []int32
	for v := range n {
		span := bySrc[start[v]:start[v+1]]
		if len(span) <= shortSpan {
			for j, k := range span {
				for _, h := range span[:j] {
					if edges[h] == edges[k] {
						edges[k].Src = NoNode
						break
					}
				}
			}
			continue
		}
		sorted = append(sorted[:0], span...)
		slices.SortFunc(sorted, func(a, b int32) int {
			x, y := edges[a], edges[b]
			return cmp.Or(cmp.Compare(x.Dst, y.Dst), cmp.Compare(x.Kind, y.Kind),
				cmp.Compare(x.Label, y.Label), cmp.Compare(a, b))
		})
		prev := edges[sorted[0]]
		for _, k := range sorted[1:] {
			if edges[k] == prev {
				edges[k].Src = NoNode
			} else {
				prev = edges[k]
			}
		}
	}
	kept := edges[:0]
	for _, e := range edges {
		if e.Src != NoNode {
			kept = append(kept, e)
		}
	}
	return kept
}

func parseEdgeKind(b []byte) (EdgeKind, error) {
	switch string(b) {
	case "new":
		return New, nil
	case "assign":
		return Assign, nil
	case "load":
		return Load, nil
	case "store":
		return Store, nil
	case "assignglobal":
		return AssignGlobal, nil
	case "entry":
		return Entry, nil
	case "exit":
		return Exit, nil
	}
	return 0, fmt.Errorf("unknown edge kind %q", b)
}

// quote escapes a name so that it contains no whitespace and survives the
// Fields-based splitting in Decode. The bare asterisk encodes the empty
// string (QueryEscape can never produce it, since it escapes '*').
func quote(s string) string {
	if s == "" {
		return "*"
	}
	return url.QueryEscape(s)
}

func unquote(s string) (string, error) {
	if s == "*" {
		return "", nil
	}
	return url.QueryUnescape(s)
}

// appendUnquoted appends the decoding of the quoted name b to dst. Only
// '%' escapes and '+' change under url.QueryUnescape, so a name with
// neither is copied as it is.
func appendUnquoted(dst, b []byte) ([]byte, error) {
	if string(b) == "*" {
		return dst, nil
	}
	if bytes.ContainsAny(b, "%+") {
		s, err := url.QueryUnescape(string(b))
		return append(dst, s...), err
	}
	return append(dst, b...), nil
}
