package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// flatProfile is a CPU profile reduced to self (flat) samples per function.
type flatProfile struct {
	total int64
	flat  map[string]int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes and attributes each sample to its innermost frame (the first line
// of the leaf location, which is the innermost function when calls were
// inlined). Only the fields needed for that are decoded.
func parseCPUProfile(data []byte) (*flatProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples   []sample
		locFn     = map[uint64]uint64{} // location id -> innermost function id
		fnName    = map[uint64]int64{}  // function id -> string table index
		strtab    []string
		decodeErr error
	)
	// keep records the first error of a nested message.
	keep := func(err error) {
		if decodeErr == nil {
			decodeErr = err
		}
	}
	err = protoFields(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			keep(protoFields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1: // location_id, packed or not
					ids := packed(v, b)
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // value: [samples, cpu ns]
					if vals := packed(v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			gotLine := false
			keep(protoFields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line: the first one is the innermost inlined frame
					if !gotLine {
						gotLine = true
						keep(protoFields(b, func(f int, v uint64, _ []byte) {
							if f == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			keep(protoFields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			fnName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &flatProfile{flat: map[string]int64{}}
	for _, s := range samples {
		name := "?"
		if i, ok := fnName[locFn[s.leaf]]; ok && i >= 0 && int(i) < len(strtab) {
			name = strtab[i]
		}
		p.flat[name] += s.count
		p.total += s.count
	}
	return p, nil
}

// share reports the fraction of samples whose function matches.
func (p *flatProfile) share(match func(fn string) bool) float64 {
	if p == nil || p.total == 0 {
		return 0
	}
	var n int64
	for fn, c := range p.flat {
		if match(fn) {
			n += c
		}
	}
	return float64(n) / float64(p.total)
}

// modulePrefix matches the functions of awgsim/internal/<module>.
func modulePrefix(module string) func(string) bool {
	prefix := "awgsim/internal/" + module + "."
	return func(fn string) bool { return strings.HasPrefix(fn, prefix) }
}

// isMapOp matches the runtime's map implementation.
func isMapOp(fn string) bool {
	return strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "internal/runtime/maps.")
}

// protoFields walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, f func(field int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			f(field, v, nil)
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			f(field, binary.LittleEndian.Uint64(b), nil)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			f(field, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			f(field, uint64(binary.LittleEndian.Uint32(b)), nil)
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// packed returns a repeated varint field's values: one unpacked value v
// when b is nil, else the packed run in b.
func packed(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
