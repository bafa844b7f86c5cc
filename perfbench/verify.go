package main

import (
	"bufio"
	"bytes"
	"embed"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/calcm/heterosim/internal/server"
)

// expected holds the stored reference outputs: response digests of the
// hot catalog and the warm-up probes, and the full `heterosim all`
// output. Regenerate with -regen (see README.md) only when a change to
// the program's output is intended.
//
//go:embed expected
var expected embed.FS

const (
	digestsFile = "expected/digests.txt"
	allFile     = "expected/all.txt"
)

// storedDigests reads name -> digest.
func storedDigests() (map[string]uint64, error) {
	b, err := expected.ReadFile(digestsFile)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseUint(f[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", digestsFile, err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

func writeDigests(dir string, d map[string]uint64) error {
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %016x\n", n, d[n])
	}
	return os.WriteFile(filepath.Join(dir, digestsFile), []byte(b.String()), 0o644)
}

// multisetHash combines digests order-independently (a sum mod 2^64), so
// two runs that return the same bodies in a different order agree.
func multisetHash(ds []uint64) uint64 {
	var s uint64
	for _, d := range ds {
		s += d
	}
	return s
}

// oracle recomputes cold responses in-process through the same serving
// code (a fresh server.Handler), after the timed phase so it never
// competes with the daemon for CPU. Every cold key is new to the daemon
// and to the oracle, so both answer from a miss and the bodies must be
// byte-identical; the stored probe digests pin the model code itself.
type oracle struct{ h http.Handler }

func newOracle() (*oracle, error) {
	s, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	return &oracle{h: s.Handler()}, nil
}

func (o *oracle) digest(op op) (uint64, error) {
	req := httptest.NewRequest(http.MethodPost, routes[op.class], bytes.NewReader(op.body()))
	rec := httptest.NewRecorder()
	o.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("oracle %s: status %d: %s", op.class, rec.Code, rec.Body.Bytes())
	}
	h := fnv.New64a()
	h.Write(rec.Body.Bytes())
	return h.Sum64(), nil
}

// digests recomputes every op's digest with `workers` goroutines.
func (o *oracle) digests(ops []op, workers int) ([]uint64, error) {
	out := make([]uint64, len(ops))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += workers {
				d, err := o.digest(ops[i])
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = d
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
