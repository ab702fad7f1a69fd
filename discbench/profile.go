package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A cpuSample is one CPU-profile sample: its stack as function names,
// leaf first (inlined frames included), and the CPU nanoseconds it stands
// for.
type cpuSample struct {
	stack []string
	ns    int64
}

// parseCPUProfile decodes a gzip-compressed pprof protobuf CPU profile,
// the format runtime/pprof writes and /debug/pprof/profile serves. It
// reads only what the benchmark needs: samples, locations, functions and
// the string table.
func parseCPUProfile(b []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf (innermost inline) first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = pbPacked(s.locs, v, m)
				case 2:
					for _, x := range pbPacked(nil, v, m) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(m, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: not a CPU profile (want samples and cpu values)")
		}
		cs := cpuSample{ns: s.values[1]}
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as msg.
func pbFields(b []byte, visit func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := visit(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// pbPacked appends a repeated varint field that arrived either packed
// (msg set) or as a single value.
func pbPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := pbVarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const repoPkg = "github.com/disc-mining/disc/internal/"

// pkgOf returns the import path of the package a function name belongs
// to: "github.com/x/y/z.(*T).M[...]" → "github.com/x/y/z".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// Categories a CPU sample can be charged to. The repository's own
// packages are categories under their package name; these are the rest.
const (
	catGC       = "runtime.gc"
	catAlloc    = "runtime.alloc"
	catRuntime  = "runtime.other"
	catSort     = "sort"
	catHTTP     = "discserve.http"
	catServe    = "discserve"
	catUnmapped = "other"
)

// categoryOf charges a sample to one category. GC work (background
// marking, sweeping, assists, write barriers) and allocation (everything
// under mallocgc) are recognised anywhere on the stack. Otherwise the
// sample goes to the innermost frame that belongs to a named category:
// a repository package, sort/slices, net/http or encoding/json, or the
// discserve main package. Frames of the runtime and of other standard
// packages (fmt, strconv, bufio, syscall, ...) are helpers, charged to
// the frame that called them; a stack of helpers only is runtime.other
// when it is all runtime and "other" otherwise.
func categoryOf(stack []string, mainCat string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return catGC
		}
	}
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return catAlloc
		}
	}
	allRuntime := true
	for _, fn := range stack {
		p := pkgOf(fn)
		switch {
		case strings.HasPrefix(p, repoPkg):
			return strings.TrimPrefix(p, repoPkg)
		case p == "github.com/disc-mining/disc":
			return "disc"
		case p == "sort" || p == "slices":
			return catSort
		case p == "encoding/json" || p == "net/http" || strings.HasPrefix(p, "net/http/"):
			return catHTTP
		case p == "main":
			return mainCat
		}
		if p != "runtime" && !strings.HasPrefix(p, "internal/runtime/") && !strings.HasPrefix(p, "runtime/internal/") {
			allRuntime = false
		}
	}
	if allRuntime {
		return catRuntime
	}
	return catUnmapped
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.wbBuf", "runtime.greyobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// under reports whether any frame of the stack starts with prefix.
func under(stack []string, prefix string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}
