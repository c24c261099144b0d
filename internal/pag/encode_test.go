package pag

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, p *Program) *Program {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b, n := buildTiny(t)
	p := NewProgram("tiny graph", b.G)
	p.Casts = []CastSite{{Var: n["x"], Target: 0, Name: "(A)x @ main:3"}}
	p.Derefs = []DerefSite{{Var: n["w"], Name: "w.f"}}
	p.Factories = []FactorySite{{Method: 0, Ret: n["r"], Name: "A.callee"}}

	got := roundTrip(t, p)
	if got.Name != p.Name {
		t.Errorf("Name = %q, want %q", got.Name, p.Name)
	}
	if got.G.NumNodes() != b.G.NumNodes() {
		t.Errorf("nodes = %d, want %d", got.G.NumNodes(), b.G.NumNodes())
	}
	if got.G.NumEdges() != b.G.NumEdges() {
		t.Errorf("edges = %d, want %d", got.G.NumEdges(), b.G.NumEdges())
	}
	if got.G.Stats() != b.G.Stats() {
		t.Errorf("stats = %+v, want %+v", got.G.Stats(), b.G.Stats())
	}
	if !reflect.DeepEqual(got.Casts, p.Casts) {
		t.Errorf("Casts = %+v, want %+v", got.Casts, p.Casts)
	}
	if !reflect.DeepEqual(got.Derefs, p.Derefs) {
		t.Errorf("Derefs = %+v, want %+v", got.Derefs, p.Derefs)
	}
	if !reflect.DeepEqual(got.Factories, p.Factories) {
		t.Errorf("Factories = %+v, want %+v", got.Factories, p.Factories)
	}

	// Per-node adjacency must match exactly.
	for i := 0; i < b.G.NumNodes(); i++ {
		id := NodeID(i)
		if !reflect.DeepEqual(got.G.Out(id), b.G.Out(id)) {
			t.Errorf("Out(%d) = %v, want %v", i, got.G.Out(id), b.G.Out(id))
		}
	}

	// Derived state must be reconstructed.
	f := got.G.AddField("A.f")
	if len(got.G.StoresOf(f)) != 1 {
		t.Error("storesByField not rebuilt after decode")
	}
}

func TestDecodeErrors(t *testing.T) {
	const oneMethod = "pag v1 x\nclass A -1\nmethod A.m 0\n"
	cases := []struct {
		name, input string
		line        int // the line the error must name; 0 when it names none
	}{
		{"empty", "", 0},
		{"bad header", "nonsense here now\n", 1},
		{"bad record", "pag v1 x\nbogus 1 2\n", 2},
		{"bad edge kind", "pag v1 x\nedge teleport 0 1\n", 2},
		{"truncated node", "pag v1 x\nnode local 0\n", 2},
		{"invalid edge target", "pag v1 x\nnode local -1 -1 v\nedge assign 0 7\n", 3},
		{"bad integer", "pag v1 x\nclass A x\n", 2},
		{"node method range", oneMethod + "node local 7 0 v\n", 4},
		{"node method negative", oneMethod + "node local -2 0 v\n", 4},
		{"node class range", oneMethod + "node local 0 1 v\n", 4},
		{"class parent range", "pag v1 x\nclass A -1\nclass B 3\nclass C 1\n", 3},
		{"class parent negative", "pag v1 x\nclass A -3\n", 2},
		{"method class range", oneMethod + "method A.n 4\n", 4},
		{"callsite caller negative", oneMethod + "callsite -2 c 0\n", 4},
		{"callsite target negative", oneMethod + "callsite 0 c 0 -1\n", 4},
		{"label wraps int32", oneMethod + "field A.f\nnode local 0 0 a\nnode local 0 0 b\nedge load 0 1 4294967296\n", 7},
		{"endpoint wraps int32", oneMethod + "node local 0 0 a\nedge assign 0 4294967296\n", 5},
		// Client sites are checked against the complete tables, by the
		// rules persist applies when it reopens a saved program.
		{"cast variable range", oneMethod + "node local 0 0 a\ncast 1 0 c\n", 5},
		{"cast variable negative", oneMethod + "node local 0 0 a\ncast -1 0 c\n", 5},
		{"cast class range", oneMethod + "node local 0 0 a\ncast 0 1 c\n", 5},
		{"cast class negative", oneMethod + "node local 0 0 a\ncast 0 -1 c\n", 5},
		{"deref variable range", oneMethod + "node local 0 0 a\nderef 0 d\nderef 3 d\n", 6},
		{"deref variable negative", oneMethod + "deref -1 d\n", 4},
		{"factory method range", oneMethod + "node local 0 0 a\nfactory 1 0 f\n", 5},
		{"factory method negative", oneMethod + "node local 0 0 a\nfactory -1 0 f\n", 5},
		{"factory return range", oneMethod + "node local 0 0 a\nfactory 0 1 f\n", 5},
		{"factory return negative", oneMethod + "node local 0 0 a\nfactory 0 -1 f\n", 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("Decode(%.80q) succeeded, want error", tc.input)
			}
			if want := fmt.Sprintf("pag: line %d: ", tc.line); tc.line > 0 && !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error %q does not start with %q", err, want)
			}
		})
	}
}

// TestDecodeSitesForward pins that a client site may name a node or
// class declared further down, as table references may.
func TestDecodeSitesForward(t *testing.T) {
	in := "pag v1 x\ncast 0 0 c\nderef 0 d\nfactory 0 0 f\nclass A -1\nmethod A.m 0\nnode local 0 0 a\n"
	p, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Casts) != 1 || len(p.Derefs) != 1 || len(p.Factories) != 1 {
		t.Errorf("sites = %v %v %v, want one of each", p.Casts, p.Derefs, p.Factories)
	}
}

// TestParseInt32 pins that the decoder's integer parser agrees with
// strconv.ParseInt(s, 10, 32) on the value and on whether it fails (the
// fallback returns ParseInt's own error, so its text agrees too).
func TestParseInt32(t *testing.T) {
	for _, s := range []string{
		"0", "7", "-7", "+7", "-0", "+0", "007", "-007",
		"999999999", "-999999999", "1000000000", "-1000000000",
		"2147483647", "-2147483647", "-2147483648", "2147483648", "-2147483649",
		"4294967296", "99999999999999999999",
		"-", "+", "", "--1", "1-", "1_0", "0x10", "1e3", " 1", "1 ", "a", "12a",
	} {
		want, wantErr := strconv.ParseInt(s, 10, 32)
		got, err := parseInt32([]byte(s))
		if int64(got) != want || (err == nil) != (wantErr == nil) {
			t.Errorf("parseInt32(%q) = %d, %v; ParseInt = %d, %v", s, got, err, want, wantErr)
		}
		if err != nil && err.Error() != wantErr.Error() {
			t.Errorf("parseInt32(%q) error %q, ParseInt's %q", s, err, wantErr)
		}
	}
}

// TestDecodeLineLimit pins the length bound: a line of maxLine-1 bytes
// decodes, one of maxLine bytes does not, with or without its '\n'; a
// '\r' before the '\n' counts towards the length.
func TestDecodeLineLimit(t *testing.T) {
	comment := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	for _, tc := range []struct {
		input string
		ok    bool
	}{
		{"pag v1 x\n" + comment(maxLine-1) + "\n", true},
		{"pag v1 x\n" + comment(maxLine-1), true},
		{"pag v1 x\n" + comment(maxLine) + "\n", false},
		{"pag v1 x\n" + comment(maxLine), false},
		{"pag v1 x\n" + comment(maxLine-1) + "\r\n", false},
	} {
		_, err := Decode(strings.NewReader(tc.input))
		if (err == nil) != tc.ok {
			t.Errorf("line of %d bytes: err = %v, want ok = %v", len(tc.input)-len("pag v1 x\n"), err, tc.ok)
		}
		if err != nil && !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("err = %v, want bufio.ErrTooLong", err)
		}
	}
}

func TestQuoteRoundTrip(t *testing.T) {
	names := []string{"", "plain", "with space", "a%b", "Main.main:32", "*", "+x+", "日本"}
	for _, name := range names {
		got, err := unquote(quote(name))
		if err != nil {
			t.Errorf("unquote(quote(%q)): %v", name, err)
			continue
		}
		if got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
		if strings.ContainsAny(quote(name), " \t\n") {
			t.Errorf("quote(%q) = %q contains whitespace", name, quote(name))
		}
	}
}

func TestDecodeRestoresNullClass(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("A", NoClass)
	m := b.Method("A.m", cls)
	v := b.Local(m, "v", cls)
	b.NullAssign(v)
	p := roundTrip(t, NewProgram("nulls", b.G))
	// The null object is node index of the object; find it by class name.
	found := false
	for i := 0; i < p.G.NumNodes(); i++ {
		if p.G.IsNullObject(NodeID(i)) {
			found = true
		}
	}
	if !found {
		t.Error("null object lost in round trip")
	}
}

// TestEncodeDecodeBodyless pins that bodyless marks survive the text
// round trip: without the bodyless record a decoded open-world PAG would
// silently lose its holes — the engines would answer it closed-world,
// which is exactly the unsoundness the marks exist to prevent.
func TestEncodeDecodeBodyless(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Lib", NoClass)
	m := b.Method("Lib.get", cls)
	this := b.Local(m, "this", cls)
	ret := b.Local(m, "ret", cls)
	info, err := b.G.MarkBodyless(m, []NodeID{this, NoNode}, ret)
	if err != nil {
		t.Fatal(err)
	}
	void := b.Method("Lib.touch", cls)
	vThis := b.Local(void, "this", cls)
	vInfo, err := b.G.MarkBodyless(void, []NodeID{vThis}, NoNode)
	if err != nil {
		t.Fatal(err)
	}

	got := roundTrip(t, NewProgram("bodyless", b.G)).G
	if got.NumBodyless() != 2 {
		t.Fatalf("NumBodyless = %d, want 2", got.NumBodyless())
	}
	gi, ok := got.Bodyless(m)
	if !ok {
		t.Fatal("Lib.get lost its bodyless mark")
	}
	if !reflect.DeepEqual(gi, info) {
		t.Errorf("Lib.get info = %+v, want %+v", gi, info)
	}
	if !got.IsBlobObject(gi.BlobObj) {
		t.Error("decoded blob object not recognised (Blob class not re-resolved)")
	}
	vi, _ := got.Bodyless(void)
	if !reflect.DeepEqual(vi, vInfo) {
		t.Errorf("Lib.touch info = %+v, want %+v", vi, vInfo)
	}
}

func TestDecodeBodylessErrors(t *testing.T) {
	base := "pag v1 t\nclass Lib -1\nmethod Lib.get 0\nnode local 0 0 this\n"
	cases := []struct{ name, line string }{
		{"short", "bodyless 0 1 2"},
		{"method range", "bodyless 9 0 0 -1 0"},
		{"node range", "bodyless 0 42 0 -1 0"},
		{"no-node blob", "bodyless 0 -1 0 -1 0"},
		{"dup", "bodyless 0 0 0 -1 0\nbodyless 0 0 0 -1 0"},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(base + c.line + "\n")); err == nil {
			t.Errorf("%s: Decode accepted %q", c.name, c.line)
		}
	}
}
