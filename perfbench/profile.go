package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// cpuProfile fetches a CPU profile of the daemon over its next secs
// seconds from its pprof listener.
func (d *daemon) cpuProfile(secs int) ([]byte, error) {
	hc := &http.Client{Timeout: time.Duration(secs+20) * time.Second}
	res, err := hc.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.pprof, secs))
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err == nil && res.StatusCode != http.StatusOK {
		err = fmt.Errorf("cpu profile: %s: %s", res.Status, b)
	}
	return b, err
}

// profileSample is one CPU profile sample: its weight (CPU nanoseconds)
// and the names of the functions on its stack, leaf first.
type profileSample struct {
	ns    int64
	stack []string
}

// decodeProfile reads the gzipped pprof protobuf runtime/pprof writes.
// It reads only what a share of CPU needs: each sample's stack of
// function names and its last value (CPU nanoseconds).
func decodeProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					s.vals = pbUints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, fmt.Errorf("cpu profile: sample without values")
		}
		ps := profileSample{ns: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// pbFields calls fn for each field of a protobuf message: with the value
// of a varint field, or the bytes of a length-delimited one. Fixed-width
// fields, which a CPU profile does not use for what is read here, are
// skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad tag")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch tag & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("cpu profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("cpu profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("cpu profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("cpu profile: wire type %d", tag&7)
		}
		if err := fn(int(tag>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed (data) or not (v).
func pbUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}

// cpuShare is the share of the profile's CPU in samples whose stack in
// accepts.
func cpuShare(samples []profileSample, in func(stack []string) bool) float64 {
	var total, hit int64
	for _, s := range samples {
		total += s.ns
		if in(s.stack) {
			hit += s.ns
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

const (
	enginePkg = "github.com/calcm/heterosim/internal/engine"
	serverPkg = "github.com/calcm/heterosim/internal/server"
	parPkg    = "github.com/calcm/heterosim/internal/par"
)

// inEvaluate reports whether a daemon CPU sample ran inside its evaluate
// stage: under the evaluation closure a buffered or batch request's
// Prepare returns (it evaluates and encodes the response), under a
// stream's evaluation closure (an endpoint builder's func literal), or
// on an internal/par worker that an evaluation fanned out to. Batch
// items also run on par workers; only their evaluation counts, not
// their cache lookup.
func inEvaluate(stack []string) bool {
	worker, batch := false, false
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, enginePkg+".(*op[") && strings.HasSuffix(fn, ").Prepare.func1"),
			strings.HasPrefix(fn, serverPkg+".build") && strings.Contains(fn, ".func"):
			return true
		case strings.HasPrefix(fn, parPkg+".ForEach.func"):
			worker = true
		case strings.HasPrefix(fn, serverPkg+".(*Server).handleBatch"):
			batch = true
		}
	}
	return worker && !batch
}
