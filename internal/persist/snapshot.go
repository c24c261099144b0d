// Package persist is the crash-safe persistence layer: it serialises a
// frozen program graph (and optionally the engine's summary cache) into a
// single checksummed snapshot file, pairs it with an append-only journal
// of delta logs (internal/persist/journal), and recovers the exact engine
// state after a crash by loading the snapshot and replaying the journal
// epoch by epoch (DESIGN.md §13).
//
// Snapshot layout (little-endian): the magic "DSUMSNAP", a u32 format
// version, and a u32 section count; then each section as
//
//	u32 kind | u32 payloadLen | u32 crc32(payload) | payload
//
// Every section carries its own CRC, so damage is localised on read.
// Snapshots are written atomically — temp file, fsync, rename, directory
// fsync — so a crash mid-write leaves the previous snapshot untouched and
// at worst a garbage temp file that the next write replaces.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"dynsum/internal/core"
	"dynsum/internal/faultinject"
	"dynsum/internal/intstack"
	"dynsum/internal/pag"
)

// Magic opens every snapshot file; Version guards the section layout.
const (
	Magic   = "DSUMSNAP"
	Version = 2

	snapHeaderSize = len(Magic) + 4 + 4 // magic + u32 version + u32 section count
	sectionHdrSize = 4 + 4 + 4          // u32 kind + u32 len + u32 crc
	maxSectionKind = secBodyless
)

// Section kinds, in required file order. secCache is optional (a snapshot
// of a cold engine omits it) and so is secBodyless (a closed-world graph
// has no bodyless-method table, and pre-open-world snapshots predate the
// section); everything else must appear exactly once.
const (
	secMeta = iota + 1
	secClasses
	secFields
	secMethods
	secCallSites
	secNodes
	secCSR
	secCond
	secSites
	secCache
	secBodyless
)

var sectionNames = [maxSectionKind + 1]string{
	secMeta: "meta", secClasses: "classes", secFields: "fields",
	secMethods: "methods", secCallSites: "callsites", secNodes: "nodes",
	secCSR: "csr", secCond: "cond", secSites: "sites", secCache: "cache",
	secBodyless: "bodyless",
}

// snapshot is the decoded (or to-be-encoded) content of a snapshot file.
type snapshot struct {
	epoch      uint64
	name       string
	img        *pag.FrozenImage
	fieldOrder []int32 // the graph's FieldOrder, stored in the csr section
	casts      []pag.CastSite
	derefs     []pag.DerefSite
	factories  []pag.FactorySite
	cache      *core.SummarySnapshot // nil when not persisted
}

// programSnapshot captures prog at epoch: its frozen graph's image and
// field order, and its client sites.
func programSnapshot(epoch uint64, prog *pag.Program) (*snapshot, error) {
	img, err := prog.G.Image()
	if err != nil {
		return nil, err
	}
	return &snapshot{epoch: epoch, name: prog.Name, img: img, fieldOrder: prog.G.FieldOrder(),
		casts: prog.Casts, derefs: prog.Derefs, factories: prog.Factories}, nil
}

// --- encoding ---

type section struct {
	kind    uint32
	payload []byte
}

func encodeSections(s *snapshot) []section {
	img := s.img
	var secs []section
	add := func(kind uint32, payload []byte) { secs = append(secs, section{kind, payload}) }

	var b []byte
	b = appendU64(b, s.epoch)
	b = appendString(b, s.name)
	b = appendU32(b, uint32(len(img.Nodes)))
	b = appendU32(b, uint32(len(img.Methods)))
	b = appendU32(b, uint32(len(img.Classes)))
	b = appendU32(b, uint32(len(img.CallSites)))
	b = appendU32(b, uint32(len(img.Fields)))
	add(secMeta, b)

	b = appendU32(nil, uint32(len(img.Classes)))
	for _, c := range img.Classes {
		b = appendString(b, c.Name)
		b = appendU32(b, uint32(c.Parent))
	}
	add(secClasses, b)

	b = appendU32(nil, uint32(len(img.Fields)))
	for _, f := range img.Fields {
		b = appendString(b, f)
	}
	add(secFields, b)

	b = appendU32(nil, uint32(len(img.Methods)))
	for _, m := range img.Methods {
		b = appendString(b, m.Name)
		b = appendU32(b, uint32(m.Class))
	}
	add(secMethods, b)

	b = appendU32(nil, uint32(len(img.CallSites)))
	for _, cs := range img.CallSites {
		b = appendU32(b, uint32(cs.Caller))
		b = appendString(b, cs.Name)
		b = appendU32(b, uint32(len(cs.Targets)))
		for _, t := range cs.Targets {
			b = appendU32(b, uint32(t))
		}
	}
	add(secCallSites, b)

	b = appendU32(nil, uint32(len(img.Nodes)))
	for _, n := range img.Nodes {
		b = append(b, byte(n.Kind))
		b = appendU32(b, uint32(n.Method))
		b = appendU32(b, uint32(n.Class))
		b = appendString(b, n.Name)
	}
	add(secNodes, b)

	b = appendEdges(nil, img.OutEdges)
	b = appendI32s(b, img.OutStart)
	b = appendI32s(b, img.OutSplit)
	b = appendEdges(b, img.InEdges)
	b = appendI32s(b, img.InStart)
	b = appendI32s(b, img.InSplit)
	b = appendBytes(b, img.Flags)
	b = appendI32s(b, s.fieldOrder)
	add(secCSR, b)

	b = nil
	if img.CondTrivial {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, v := range [...]int{
		img.CondStats.Nodes, img.CondStats.Reps, img.CondStats.SCCs,
		img.CondStats.LargestSCC, img.CondStats.CollapsedNodes,
		img.CondStats.LocalEdges, img.CondStats.CondensedLocalEdges,
		img.CondStats.GlobalEdges, img.CondStats.CondensedGlobalEdges,
	} {
		b = appendU64(b, uint64(v))
	}
	if !img.CondTrivial {
		rep := make([]int32, len(img.CondRep))
		for i, r := range img.CondRep {
			rep[i] = int32(r)
		}
		b = appendI32s(b, rep)
		b = appendEdges(b, img.CondOutEdges)
		b = appendI32s(b, img.CondOutStart)
		b = appendI32s(b, img.CondOutSplit)
		b = appendEdges(b, img.CondInEdges)
		b = appendI32s(b, img.CondInStart)
		b = appendI32s(b, img.CondInSplit)
		b = appendBytes(b, img.CondFlags)
	}
	add(secCond, b)

	b = appendU32(nil, uint32(len(s.casts)))
	for _, c := range s.casts {
		b = appendU32(b, uint32(c.Var))
		b = appendU32(b, uint32(c.Target))
		b = appendString(b, c.Name)
	}
	b = appendU32(b, uint32(len(s.derefs)))
	for _, d := range s.derefs {
		b = appendU32(b, uint32(d.Var))
		b = appendString(b, d.Name)
	}
	b = appendU32(b, uint32(len(s.factories)))
	for _, f := range s.factories {
		b = appendU32(b, uint32(f.Method))
		b = appendU32(b, uint32(f.Ret))
		b = appendString(b, f.Name)
	}
	add(secSites, b)

	// The open-world bodyless-method table (DESIGN.md §15): without it a
	// recovered store would silently answer its holes closed-world. Omitted
	// for closed-world graphs so their snapshots are byte-identical to
	// pre-open-world ones.
	if len(img.Bodyless) > 0 {
		b = appendU32(nil, uint32(len(img.Bodyless)))
		for _, bd := range img.Bodyless {
			b = appendU32(b, uint32(bd.Method))
			b = appendU32(b, uint32(bd.BlobObj))
			b = appendU32(b, uint32(bd.BlobVar))
			b = appendU32(b, uint32(bd.Ret))
			b = appendU32(b, uint32(len(bd.Formals)))
			for _, f := range bd.Formals {
				b = appendU32(b, uint32(f))
			}
		}
		add(secBodyless, b)
	}

	if c := s.cache; c != nil {
		b = appendU32(nil, uint32(c.CacheMode))
		b = appendI32s(b, c.StackParents)
		b = appendI32s(b, c.StackSyms)
		b = appendU32(b, uint32(len(c.Entries)))
		for _, e := range c.Entries {
			b = appendU32(b, uint32(e.Node))
			b = appendU32(b, uint32(e.Fs))
			b = append(b, e.St)
			b = appendU32(b, uint32(e.Method))
			b = appendU32(b, uint32(len(e.Objs)))
			for _, o := range e.Objs {
				b = appendU32(b, uint32(o))
			}
			b = appendU32(b, uint32(len(e.Frontier)))
			for _, fr := range e.Frontier {
				b = appendU32(b, uint32(fr.Node))
				b = appendU32(b, uint32(fr.Fs))
				b = append(b, uint8(fr.St))
			}
		}
		add(secCache, b)
	}
	return secs
}

// encodeSnapshot renders the complete snapshot file as one byte slice —
// the pure counterpart of writeSnapshot, shared with the fuzz round trip.
func encodeSnapshot(s *snapshot) []byte {
	secs := encodeSections(s)
	out := make([]byte, 0, snapHeaderSize)
	out = append(out, Magic...)
	out = appendU32(out, Version)
	out = appendU32(out, uint32(len(secs)))
	for _, sec := range secs {
		out = appendU32(out, sec.kind)
		out = appendU32(out, uint32(len(sec.payload)))
		out = appendU32(out, crc32.ChecksumIEEE(sec.payload))
		out = append(out, sec.payload...)
	}
	return out
}

// --- decoding ---

// decodeSnapshot parses and verifies a snapshot file image: framing,
// every section CRC, required sections present exactly once, and the
// structural validation FromImage / ImportSummaries perform later still
// applies on top. All failures are *CorruptSnapshotError, except a
// version mismatch, which wraps ErrSnapshotVersion.
func decodeSnapshot(data []byte) (*snapshot, error) {
	if len(data) < snapHeaderSize {
		return nil, corrupt(0, "file too short for header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, corrupt(0, "bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("persist: snapshot has format version %d, this build reads %d: %w",
			v, Version, ErrSnapshotVersion)
	}
	count := binary.LittleEndian.Uint32(data[len(Magic)+4:])

	var payloads [maxSectionKind + 1][]byte
	var seen [maxSectionKind + 1]bool
	off := snapHeaderSize
	for i := uint32(0); i < count; i++ {
		if len(data)-off < sectionHdrSize {
			return nil, corrupt(int64(off), "truncated section header (%d of %d)", i+1, count)
		}
		kind := binary.LittleEndian.Uint32(data[off:])
		plen := binary.LittleEndian.Uint32(data[off+4:])
		sum := binary.LittleEndian.Uint32(data[off+8:])
		off += sectionHdrSize
		if kind < secMeta || kind > maxSectionKind {
			return nil, corrupt(int64(off-sectionHdrSize), "unknown section kind %d", kind)
		}
		if seen[kind] {
			return nil, corrupt(int64(off-sectionHdrSize), "duplicate %s section", sectionNames[kind])
		}
		if int64(plen) > int64(len(data)-off) {
			return nil, corrupt(int64(off), "%s section truncated (%d of %d payload bytes)",
				sectionNames[kind], len(data)-off, plen)
		}
		payload := data[off : off+int(plen)]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, &CorruptSnapshotError{Section: sectionNames[kind], Offset: int64(off),
				Reason: fmt.Sprintf("CRC mismatch (stored %08x, computed %08x)", sum, got)}
		}
		seen[kind] = true
		payloads[kind] = payload
		off += int(plen)
	}
	if off != len(data) {
		return nil, corrupt(int64(off), "%d trailing bytes after last section", len(data)-off)
	}
	for kind := secMeta; kind < secCache; kind++ {
		if !seen[kind] {
			return nil, corrupt(-1, "missing %s section", sectionNames[kind])
		}
	}

	s := &snapshot{img: &pag.FrozenImage{}}
	img := s.img

	// meta
	var numNodes, numMethods, numClasses, numCallSites, numFields int
	if err := func() error {
		r := &reader{data: payloads[secMeta]}
		var err error
		if s.epoch, err = r.u64(); err != nil {
			return err
		}
		if s.name, err = r.str(); err != nil {
			return err
		}
		for _, dst := range []*int{&numNodes, &numMethods, &numClasses, &numCallSites, &numFields} {
			v, err := r.u32()
			if err != nil {
				return err
			}
			*dst = int(v)
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("meta", err)
	}

	if err := func() error {
		r := &reader{data: payloads[secClasses]}
		n, err := r.count(2)
		if err != nil {
			return err
		}
		img.Classes = make([]pag.Class, n)
		for i := range img.Classes {
			if img.Classes[i].Name, err = r.str(); err != nil {
				return err
			}
			p, err := r.i32()
			if err != nil {
				return err
			}
			img.Classes[i].Parent = pag.ClassID(p)
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("classes", err)
	}

	if err := func() error {
		r := &reader{data: payloads[secFields]}
		n, err := r.count(1)
		if err != nil {
			return err
		}
		img.Fields = make([]string, n)
		for i := range img.Fields {
			if img.Fields[i], err = r.str(); err != nil {
				return err
			}
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("fields", err)
	}

	if err := func() error {
		r := &reader{data: payloads[secMethods]}
		n, err := r.count(1 + 4)
		if err != nil {
			return err
		}
		img.Methods = make([]pag.Method, n)
		for i := range img.Methods {
			if img.Methods[i].Name, err = r.str(); err != nil {
				return err
			}
			c, err := r.i32()
			if err != nil {
				return err
			}
			img.Methods[i].Class = pag.ClassID(c)
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("methods", err)
	}

	if err := func() error {
		r := &reader{data: payloads[secCallSites]}
		n, err := r.count(4 + 1 + 4)
		if err != nil {
			return err
		}
		img.CallSites = make([]pag.CallSite, n)
		for i := range img.CallSites {
			caller, err := r.i32()
			if err != nil {
				return err
			}
			img.CallSites[i].Caller = pag.MethodID(caller)
			if img.CallSites[i].Name, err = r.str(); err != nil {
				return err
			}
			nt, err := r.count(4)
			if err != nil {
				return err
			}
			if nt > 0 {
				ts := make([]pag.MethodID, nt)
				for j := range ts {
					t, err := r.i32()
					if err != nil {
						return err
					}
					ts[j] = pag.MethodID(t)
				}
				img.CallSites[i].Targets = ts
			}
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("callsites", err)
	}

	if err := func() error {
		r := &reader{data: payloads[secNodes]}
		n, err := r.count(1 + 4 + 4 + 1)
		if err != nil {
			return err
		}
		img.Nodes = make([]pag.Node, n)
		for i := range img.Nodes {
			k, err := r.u8()
			if err != nil {
				return err
			}
			if pag.NodeKind(k) > pag.Object {
				return fmt.Errorf("node %d has invalid kind %d", i, k)
			}
			img.Nodes[i].Kind = pag.NodeKind(k)
			m, err := r.i32()
			if err != nil {
				return err
			}
			c, err := r.i32()
			if err != nil {
				return err
			}
			img.Nodes[i].Method = pag.MethodID(m)
			img.Nodes[i].Class = pag.ClassID(c)
			if img.Nodes[i].Name, err = r.str(); err != nil {
				return err
			}
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("nodes", err)
	}

	if err := func() error {
		r := &reader{data: payloads[secCSR]}
		var err error
		if img.OutEdges, err = r.edges(); err != nil {
			return err
		}
		if img.OutStart, err = r.i32s(); err != nil {
			return err
		}
		if img.OutSplit, err = r.i32s(); err != nil {
			return err
		}
		if img.InEdges, err = r.edges(); err != nil {
			return err
		}
		if img.InStart, err = r.i32s(); err != nil {
			return err
		}
		if img.InSplit, err = r.i32s(); err != nil {
			return err
		}
		if img.Flags, err = r.bytes(); err != nil {
			return err
		}
		if s.fieldOrder, err = r.i32s(); err != nil {
			return err
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("csr", err)
	}

	if err := func() error {
		r := &reader{data: payloads[secCond]}
		trivial, err := r.u8()
		if err != nil {
			return err
		}
		if trivial > 1 {
			return fmt.Errorf("trivial flag %d is not a bool", trivial)
		}
		img.CondTrivial = trivial == 1
		for _, dst := range []*int{
			&img.CondStats.Nodes, &img.CondStats.Reps, &img.CondStats.SCCs,
			&img.CondStats.LargestSCC, &img.CondStats.CollapsedNodes,
			&img.CondStats.LocalEdges, &img.CondStats.CondensedLocalEdges,
			&img.CondStats.GlobalEdges, &img.CondStats.CondensedGlobalEdges,
		} {
			v, err := r.u64()
			if err != nil {
				return err
			}
			*dst = int(v)
		}
		if !img.CondTrivial {
			rep, err := r.i32s()
			if err != nil {
				return err
			}
			img.CondRep = make([]pag.NodeID, len(rep))
			for i, v := range rep {
				img.CondRep[i] = pag.NodeID(v)
			}
			if img.CondOutEdges, err = r.edges(); err != nil {
				return err
			}
			if img.CondOutStart, err = r.i32s(); err != nil {
				return err
			}
			if img.CondOutSplit, err = r.i32s(); err != nil {
				return err
			}
			if img.CondInEdges, err = r.edges(); err != nil {
				return err
			}
			if img.CondInStart, err = r.i32s(); err != nil {
				return err
			}
			if img.CondInSplit, err = r.i32s(); err != nil {
				return err
			}
			if img.CondFlags, err = r.bytes(); err != nil {
				return err
			}
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("cond", err)
	}

	if err := func() error {
		r := &reader{data: payloads[secSites]}
		nc, err := r.count(4 + 4 + 1)
		if err != nil {
			return err
		}
		s.casts = make([]pag.CastSite, nc)
		for i := range s.casts {
			v, err := r.i32()
			if err != nil {
				return err
			}
			t, err := r.i32()
			if err != nil {
				return err
			}
			s.casts[i].Var = pag.NodeID(v)
			s.casts[i].Target = pag.ClassID(t)
			if s.casts[i].Name, err = r.str(); err != nil {
				return err
			}
		}
		nd, err := r.count(4 + 1)
		if err != nil {
			return err
		}
		s.derefs = make([]pag.DerefSite, nd)
		for i := range s.derefs {
			v, err := r.i32()
			if err != nil {
				return err
			}
			s.derefs[i].Var = pag.NodeID(v)
			if s.derefs[i].Name, err = r.str(); err != nil {
				return err
			}
		}
		nf, err := r.count(4 + 4 + 1)
		if err != nil {
			return err
		}
		s.factories = make([]pag.FactorySite, nf)
		for i := range s.factories {
			m, err := r.i32()
			if err != nil {
				return err
			}
			ret, err := r.i32()
			if err != nil {
				return err
			}
			s.factories[i].Method = pag.MethodID(m)
			s.factories[i].Ret = pag.NodeID(ret)
			if s.factories[i].Name, err = r.str(); err != nil {
				return err
			}
		}
		return r.done()
	}(); err != nil {
		return nil, corruptSection("sites", err)
	}

	if payloads[secBodyless] != nil {
		if err := func() error {
			r := &reader{data: payloads[secBodyless]}
			n, err := r.count(4 + 4 + 4 + 4 + 4)
			if err != nil {
				return err
			}
			img.Bodyless = make([]pag.BodylessImage, n)
			for i := range img.Bodyless {
				bd := &img.Bodyless[i]
				m, err := r.i32()
				if err != nil {
					return err
				}
				obj, err := r.i32()
				if err != nil {
					return err
				}
				v, err := r.i32()
				if err != nil {
					return err
				}
				ret, err := r.i32()
				if err != nil {
					return err
				}
				bd.Method = pag.MethodID(m)
				bd.BlobObj = pag.NodeID(obj)
				bd.BlobVar = pag.NodeID(v)
				bd.Ret = pag.NodeID(ret)
				nf, err := r.count(4)
				if err != nil {
					return err
				}
				if nf > 0 {
					bd.Formals = make([]pag.NodeID, nf)
					for j := range bd.Formals {
						f, err := r.i32()
						if err != nil {
							return err
						}
						bd.Formals[j] = pag.NodeID(f)
					}
				}
			}
			// Range and duplicate validation happens in pag.FromImage,
			// which rejects malformed records with typed errors.
			return r.done()
		}(); err != nil {
			return nil, corruptSection("bodyless", err)
		}
	}

	if payloads[secCache] != nil {
		c := &core.SummarySnapshot{}
		if err := func() error {
			r := &reader{data: payloads[secCache]}
			mode, err := r.i32()
			if err != nil {
				return err
			}
			c.CacheMode = mode
			if c.StackParents, err = r.i32s(); err != nil {
				return err
			}
			if c.StackSyms, err = r.i32s(); err != nil {
				return err
			}
			n, err := r.count(4 + 4 + 1 + 4 + 4 + 4)
			if err != nil {
				return err
			}
			c.Entries = make([]core.SummaryEntry, n)
			for i := range c.Entries {
				e := &c.Entries[i]
				node, err := r.i32()
				if err != nil {
					return err
				}
				fs, err := r.i32()
				if err != nil {
					return err
				}
				st, err := r.u8()
				if err != nil {
					return err
				}
				method, err := r.i32()
				if err != nil {
					return err
				}
				e.Node = pag.NodeID(node)
				e.Fs = intstack.ID(fs)
				e.St = st
				e.Method = pag.MethodID(method)
				no, err := r.count(4)
				if err != nil {
					return err
				}
				if no > 0 {
					e.Objs = make([]pag.NodeID, no)
					for j := range e.Objs {
						o, err := r.i32()
						if err != nil {
							return err
						}
						e.Objs[j] = pag.NodeID(o)
					}
				}
				nf, err := r.count(4 + 4 + 1)
				if err != nil {
					return err
				}
				if nf > 0 {
					e.Frontier = make([]core.FrontierState, nf)
					for j := range e.Frontier {
						fn, err := r.i32()
						if err != nil {
							return err
						}
						ffs, err := r.i32()
						if err != nil {
							return err
						}
						fst, err := r.u8()
						if err != nil {
							return err
						}
						if fst > uint8(core.S2) {
							return fmt.Errorf("entry %d frontier state %d invalid", i, fst)
						}
						e.Frontier[j] = core.FrontierState{
							Node: pag.NodeID(fn), Fs: intstack.ID(ffs), St: core.State(fst),
						}
					}
				}
			}
			return r.done()
		}(); err != nil {
			return nil, corruptSection("cache", err)
		}
		s.cache = c
	}

	// Cross-check the meta counts against the decoded tables: a snapshot
	// whose sections disagree about sizes is corrupt even if every CRC
	// verifies (e.g. sections spliced together from two files).
	for _, chk := range []struct {
		name string
		want int
		got  int
	}{
		{"nodes", numNodes, len(img.Nodes)},
		{"methods", numMethods, len(img.Methods)},
		{"classes", numClasses, len(img.Classes)},
		{"callsites", numCallSites, len(img.CallSites)},
		{"fields", numFields, len(img.Fields)},
	} {
		if chk.want != chk.got {
			return nil, corruptSection("meta",
				fmt.Errorf("meta declares %d %s, %s section holds %d", chk.want, chk.name, chk.name, chk.got))
		}
	}
	return s, nil
}

// --- file IO ---

const (
	snapshotFile = "snapshot.dsum"
	snapshotTemp = "snapshot.dsum.tmp"
	journalFile  = "journal.dsum"
)

// writeSnapshot atomically installs s as dir's snapshot: sections are
// written to a temp file (SnapshotWrite fires before each write), the
// temp is fsynced and renamed over the live name (SnapshotRename fires
// just before), and the directory is fsynced so the rename itself is
// durable. A crash anywhere in here leaves the previous snapshot file
// (if any) fully intact.
func writeSnapshot(dir string, s *snapshot) error {
	secs := encodeSections(s)
	tmp := filepath.Join(dir, snapshotTemp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	writeChunk := func(chunk []byte) error {
		faultinject.Fire(faultinject.SnapshotWrite)
		_, err := f.Write(chunk)
		return err
	}

	hdr := make([]byte, 0, snapHeaderSize)
	hdr = append(hdr, Magic...)
	hdr = appendU32(hdr, Version)
	hdr = appendU32(hdr, uint32(len(secs)))
	if err := writeChunk(hdr); err != nil {
		f.Close()
		return err
	}
	for _, sec := range secs {
		shdr := appendU32(nil, sec.kind)
		shdr = appendU32(shdr, uint32(len(sec.payload)))
		shdr = appendU32(shdr, crc32.ChecksumIEEE(sec.payload))
		if err := writeChunk(append(shdr, sec.payload...)); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	faultinject.Fire(faultinject.SnapshotRename)
	if err := os.Rename(tmp, filepath.Join(dir, snapshotFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// readSnapshot loads and fully verifies dir's snapshot file.
func readSnapshot(dir string) (*snapshot, error) {
	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decodeSnapshot(data)
	if err != nil {
		if ce, ok := err.(*CorruptSnapshotError); ok {
			ce.Path = path
		}
		return nil, err
	}
	return s, nil
}

// syncDir fsyncs a directory so a just-completed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
