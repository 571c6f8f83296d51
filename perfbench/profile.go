package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuGroups are the packages the per-layer CPU shares are reported for,
// keyed by metric prefix. Model and serving packages of this module are
// named by their directory under internal/; everything else is a
// standard-library package path.
var cpuGroups = []string{
	"sim", "engine", "workload", "cache", "coalesce", "core", "mshr", "hmc",
	"arena", "prefetch", "experiments", "cluster", "server", "gateway",
	"store", "wal", "telemetry", "net/http", "encoding/json", "runtime",
}

const modulePrefix = "github.com/pacsim/pac/internal/"

// packageOf extracts the import path from a symbol name such as
// "github.com/pacsim/pac/internal/sim.(*Runner).step" or
// "net/http.(*conn).serve".
func packageOf(fn string) string {
	if i := strings.Index(fn, "["); i >= 0 {
		fn = fn[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// groupOf maps a leaf function to its CPU group. Runtime and GC frames,
// including the runtime's internal packages and frames without a
// package, land in "runtime"; packages outside cpuGroups land in
// "other".
func groupOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "" || !strings.ContainsAny(fn, "."),
		pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, modulePrefix):
		pkg = strings.TrimPrefix(pkg, modulePrefix)
		if i := strings.Index(pkg, "/"); i >= 0 {
			pkg = pkg[:i]
		}
	}
	for _, g := range cpuGroups {
		if pkg == g {
			return g
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each group's
// share of the self (leaf-frame) samples in percent, plus the sample
// count. Every group in cpuGroups is present, as is "other".
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]float64{"other": 0}
	for _, g := range cpuGroups {
		out[g] = 0
	}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		out[groupOf(p.leafFunc(s.locs[0]))] += float64(n)
	}
	if total > 0 {
		for g := range out {
			out[g] = 100 * out[g] / float64(total)
		}
	}
	return out, total, nil
}

// profile holds the slice of profile.proto the shares need.
type profile struct {
	samples   []sample
	locFunc   map[uint64]uint64 // location ID -> innermost function ID
	funcName  map[uint64]int64  // function ID -> string table index
	stringTab []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// leafFunc names the innermost function at a location (with inlining,
// the first line entry is the inlined callee).
func (p *profile) leafFunc(loc uint64) string {
	idx, ok := p.funcName[p.locFunc[loc]]
	if !ok || idx < 0 || int(idx) >= len(p.stringTab) {
		return ""
	}
	return p.stringTab[idx]
}

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost frame
					if first {
						first = false
						return eachField(b, func(num, wire int, v uint64, b []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.stringTab = append(p.stringTab, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints collects a repeated uint64 field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
