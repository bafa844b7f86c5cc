package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// invocation is one `heterosim all` child process.
type invocation struct {
	wall   time.Duration
	cpuMs  float64 // user + system CPU of the child
	rssMB  float64 // the child's max RSS
	stdout []byte
}

func runCLI(bin string, args ...string) (invocation, error) {
	cmd := exec.Command(filepath.Join(bin, "heterosim"), args...)
	cmd.SysProcAttr = childAttr()
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return invocation{}, fmt.Errorf("heterosim %s: %v: %s", strings.Join(args, " "), err, errb.Bytes())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return invocation{wall: wall, cpuMs: ms(cpu), rssMB: float64(ru.Maxrss) / 1024, stdout: out.Bytes()}, nil
}

// reproducePass runs `heterosim all` back to back: a few untimed set-up
// invocations, then as many timed ones as fit in dur. Every output is
// byte-compared with the stored expected output.
type reproducePass struct {
	dur    time.Duration
	setups int
	regen  bool // rewrite the stored output instead of timing

	setupS   []float64
	timed    []invocation
	wall     time.Duration
	idle     float64 // the machine's idle CPU share over the timed phase
	steal    float64 // and its share stolen by the hypervisor
	problems []string
}

func (p *reproducePass) run(env *benchEnv) error {
	if p.regen {
		inv, err := runCLI(env.bin, "all")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(env.src, allFile), inv.stdout, 0o644)
	}
	want, err := expected.ReadFile(allFile)
	if err != nil {
		return err
	}
	if err := checkGoldens(env, want); err != nil {
		p.problems = append(p.problems, "reproduce: "+err.Error())
	}
	check := func(inv invocation) {
		if !bytes.Equal(inv.stdout, want) && len(p.problems) < 5 {
			p.problems = append(p.problems, fmt.Sprintf(
				"reproduce: `heterosim all` output (%d bytes) differs from %s (%d bytes)",
				len(inv.stdout), allFile, len(want)))
		}
	}
	for s := 0; s < p.setups; s++ {
		inv, err := runCLI(env.bin, "all")
		if err != nil {
			return err
		}
		check(inv)
		p.setupS = append(p.setupS, inv.wall.Seconds())
	}
	idle0, steal0, total0, err := systemTicks()
	if err != nil {
		return err
	}
	start := time.Now()
	for time.Since(start) < p.dur {
		inv, err := runCLI(env.bin, "all")
		if err != nil {
			return err
		}
		check(inv)
		inv.stdout = nil
		p.timed = append(p.timed, inv)
	}
	p.wall = time.Since(start)
	idle1, steal1, total1, err := systemTicks()
	if err != nil {
		return err
	}
	total := float64(max(1, total1-total0))
	p.idle, p.steal = float64(idle1-idle0)/total, float64(steal1-steal0)/total
	return nil
}

// checkGoldens ties the stored output to the CLI's golden files: the
// Table 1 and Table 6 goldens must appear verbatim in it, and its Figure
// 5 section must be what `heterosim figure 5` renders from the data the
// CSV golden pins.
func checkGoldens(env *benchEnv, all []byte) error {
	dir := filepath.Join("cmd", "heterosim", "testdata")
	for _, g := range []string{"table1.golden", "table6.golden"} {
		b, err := os.ReadFile(filepath.Join(dir, g))
		if err != nil {
			return err
		}
		if !bytes.Contains(all, b) {
			return fmt.Errorf("%s: the %s section is missing from the expected output", g, g)
		}
	}
	csv, err := runCLI(env.bin, "figure", "5", "-csv")
	if err != nil {
		return err
	}
	golden, err := os.ReadFile(filepath.Join(dir, "figure5.golden"))
	if err != nil {
		return err
	}
	if !bytes.Equal(csv.stdout, golden) {
		return fmt.Errorf("figure5.golden: `heterosim figure 5 -csv` differs from the golden")
	}
	chart, err := runCLI(env.bin, "figure", "5")
	if err != nil {
		return err
	}
	if !bytes.Contains(all, chart.stdout) {
		return fmt.Errorf("figure5.golden: the Figure 5 section of the expected output differs from `heterosim figure 5`")
	}
	return nil
}
