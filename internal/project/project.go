// Package project implements Section 6 of the paper: scaling projections
// of heterogeneous (HET) and non-heterogeneous (CMP) single-chip designs
// across ITRS technology nodes under area, power, and bandwidth budgets.
//
// For each workload it converts the physical budgets (mm², watts, GB/s)
// into BCE-relative units using the calibrated BCE anchors, assembles the
// paper's design lineup from Table 5 parameters, sweeps the sequential
// core size r (1..16) at every node, and reports the best speedup with
// its limiting factor — the data behind Figures 6-10.
package project

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/itrs"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/pollack"
	"github.com/calcm/heterosim/internal/ucore"
	"github.com/calcm/heterosim/internal/workload"
)

// Config parameterizes one projection study. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	Workload paper.WorkloadID
	Roadmap  itrs.Roadmap

	PowerBudgetW     float64 // core+cache power budget (paper: 100 W)
	BaseBandwidthGBs float64 // first-node bandwidth (paper: 180 GB/s)
	AreaScale        float64 // multiplies the node area budget (paper: 1)
	Alpha            float64 // sequential power exponent (paper: 1.75)
	MaxR             int     // sequential-core sweep bound (paper: 16)

	// Model selects the model backend evaluating each design x node
	// cell; nil means the default backend, the paper's Chung model (the
	// analytic fast path). The factory runs after all config transforms
	// (scenario alpha overrides, ablation MaxR pinning) so backends see
	// the final Alpha and MaxR.
	Model model.Factory

	// Workers bounds the design x node evaluation pool; <= 0 means
	// GOMAXPROCS. Results are identical at every worker count.
	Workers int
}

// DefaultConfig returns the paper's baseline projection setup for a
// workload.
func DefaultConfig(w paper.WorkloadID) Config {
	return Config{
		Workload:         w,
		Roadmap:          itrs.Default(),
		PowerBudgetW:     itrs.CorePowerBudgetW,
		BaseBandwidthGBs: itrs.BaseBandwidthGBs,
		AreaScale:        1,
		Alpha:            pollack.DefaultAlpha,
		MaxR:             paper.MaxSweepR,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workload == "" {
		return errors.New("project: workload required")
	}
	if err := c.Roadmap.Validate(); err != nil {
		return err
	}
	if c.PowerBudgetW <= 0 || c.BaseBandwidthGBs <= 0 || c.AreaScale <= 0 {
		return errors.New("project: budgets must be positive")
	}
	if c.Alpha <= 0 {
		return errors.New("project: alpha must be positive")
	}
	if c.MaxR < 1 {
		return errors.New("project: MaxR must be >= 1")
	}
	return nil
}

// BudgetsAt converts the config's physical budgets at one node into
// BCE-relative units for the config's workload:
//
//	A = node area (BCE) x AreaScale
//	P = watts / (BCE watts x relative power per transistor)
//	B = node GB/s / BCE compulsory GB/s
func (c Config) BudgetsAt(node itrs.Node) (bounds.Budgets, error) {
	conv, err := c.budgetConverter()
	if err != nil {
		return bounds.Budgets{}, err
	}
	return conv(node), nil
}

// budgetConverter resolves the workload's BCE calibration once and
// returns a per-node converter, so multi-node callers (the projection
// fan-out, the startup tables) do not re-derive the anchors for every
// cell. The conversion expressions are exactly BudgetsAt's.
func (c Config) budgetConverter() (func(itrs.Node) bounds.Budgets, error) {
	ref, err := ucore.DefaultBCE(c.Workload)
	if err != nil {
		return nil, err
	}
	bceBW, err := BCEBandwidthGBs(c.Workload, ref)
	if err != nil {
		return nil, err
	}
	return func(node itrs.Node) bounds.Budgets {
		return bounds.Budgets{
			Area:      node.MaxAreaBCE * c.AreaScale,
			Power:     c.PowerBudgetW / (ref.Watts * node.RelPowerPerXtor),
			Bandwidth: node.BandwidthGBs(c.BaseBandwidthGBs) / bceBW,
		}
	}, nil
}

// BCEBandwidthGBs returns the compulsory off-chip bandwidth of one BCE
// core running the workload, in GB/s. Throughput units are GFLOP/s for
// FLOP-counted workloads (GFLOP/s x bytes/flop = GB/s) and Mopt/s for
// Black-Scholes (Mopt/s x bytes/option = MB/s).
func BCEBandwidthGBs(w paper.WorkloadID, ref ucore.BCE) (float64, error) {
	bytesPerUnit, err := workload.BytesPerUnitWork(w)
	if err != nil {
		return 0, err
	}
	scale := 1.0
	if w == paper.BS {
		scale = 1e-3 // MB/s -> GB/s
	}
	return ref.PerfUnits * bytesPerUnit * scale, nil
}

// DesignsFor assembles the paper's Figure 6-10 lineup for a workload:
// the two CMP baselines plus one HET per device with published Table 5
// parameters, numbered as in the figures. The ASIC MMM design is exempt
// from the bandwidth bound (Section 6's blocking argument).
func DesignsFor(w paper.WorkloadID) ([]core.Design, error) {
	type slot struct {
		dev   paper.DeviceID
		label string
	}
	lineup := []slot{
		{paper.LX760, "(2) LX760"},
		{paper.GTX285, "(3) GTX285"},
		{paper.GTX480, "(4) GTX480"},
		{paper.R5870, "(5) R5870"},
		{paper.ASIC, "(6) ASIC"},
	}
	var hets []core.Design
	for _, s := range lineup {
		p, ok := ucore.PublishedParams(s.dev, w)
		if !ok {
			continue
		}
		hets = append(hets, core.Design{
			Kind:            core.Het,
			Label:           s.label,
			UCore:           bounds.UCore{Mu: p.Mu, Phi: p.Phi},
			ExemptBandwidth: s.dev == paper.ASIC && w == paper.MMM,
		})
	}
	if len(hets) == 0 {
		return nil, fmt.Errorf("project: no published U-core parameters for %s", w)
	}
	return core.StandardDesignsFor(hets), nil
}

// NodePoint is one trajectory sample: the optimized design point at one
// node, or Valid=false when the node is infeasible (e.g. a 10 W budget
// cannot power one BCE at 40nm).
type NodePoint struct {
	Node  itrs.Node
	Valid bool
	Point core.Point
	// EnergyNode is the task energy normalized to one BCE at the first
	// roadmap node: Point.EnergyNorm x the node's relative power per
	// transistor (Figure 10's metric).
	EnergyNode float64
}

// Trajectory is one design's evolution across the roadmap.
type Trajectory struct {
	Design core.Design
	F      float64
	Points []NodePoint
}

// MaxSpeedup returns the largest valid speedup along the trajectory.
func (t Trajectory) MaxSpeedup() float64 {
	best := 0.0
	for _, p := range t.Points {
		if p.Valid && p.Point.Speedup > best {
			best = p.Point.Speedup
		}
	}
	return best
}

// Project computes trajectories for every design in the workload's lineup
// at parallel fraction f. The design x node cells are independent
// optimizations, so they are evaluated across cfg.Workers goroutines and
// reassembled in order; output is identical at every worker count.
func Project(cfg Config, f float64) ([]Trajectory, error) {
	return ProjectCtx(context.Background(), cfg, f)
}

// ProjectCtx is Project bounded by ctx: cancelling it (e.g. an expired
// HTTP request deadline) aborts the projection between cells and returns
// ctx.Err(). nil means Background.
func ProjectCtx(ctx context.Context, cfg Config, f float64) ([]Trajectory, error) {
	return projectWith(ctx, cfg, f, false)
}

// ProjectEnergy is like Project but optimizes each node for minimum
// energy instead of maximum speedup (the alternative objective discussed
// with Figure 10).
func ProjectEnergy(cfg Config, f float64) ([]Trajectory, error) {
	return ProjectEnergyCtx(context.Background(), cfg, f)
}

// ProjectEnergyCtx is ProjectEnergy bounded by ctx (nil = Background).
func ProjectEnergyCtx(ctx context.Context, cfg Config, f float64) ([]Trajectory, error) {
	return projectWith(ctx, cfg, f, true)
}

// projectWith is the shared projection engine: it fans the design x node
// cells out over the worker pool, optimizes each for the requested
// objective under the config's model backend, and stitches the
// NodePoints back into per-design trajectories in roadmap order.
func projectWith(ctx context.Context, cfg Config, f float64, energy bool) ([]Trajectory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if f < 0 || f > 1 || math.IsNaN(f) {
		return nil, errors.New("project: f must be in [0, 1]")
	}
	designs, err := designsCached(cfg.Workload)
	if err != nil {
		return nil, err
	}
	mk := cfg.Model
	if mk == nil {
		mk = model.NewFactory(model.DefaultName, nil)
	}
	optimizer, err := mk(cfg.Alpha, cfg.MaxR)
	if err != nil {
		return nil, err
	}
	opt := optimizer.Optimize
	if energy {
		opt = optimizer.OptimizeEnergy
	}
	nodes := cfg.Roadmap.Nodes()
	// The budget conversion depends only on (workload, node): resolve the
	// BCE anchors once and convert each node once, instead of per cell.
	conv, err := cfg.budgetConverter()
	if err != nil {
		return nil, err
	}
	buds := make([]bounds.Budgets, len(nodes))
	for i, node := range nodes {
		buds[i] = conv(node)
	}
	// One flat cell per (design, node), row-major with node fastest, so
	// cell i maps to designs[i/len(nodes)] at nodes[i%len(nodes)].
	pts, err := par.Map(ctx, len(designs)*len(nodes), cfg.Workers,
		func(_ context.Context, i int) (NodePoint, error) {
			d, node, b := designs[i/len(nodes)], nodes[i%len(nodes)], buds[i%len(nodes)]
			pt, err := opt(d, f, b)
			np := NodePoint{Node: node}
			if err == nil {
				np.Valid = true
				np.Point = pt
				np.EnergyNode = pt.EnergyNorm * node.RelPowerPerXtor
			} else if !errors.Is(err, core.ErrInfeasible) {
				return NodePoint{}, fmt.Errorf("project: %s at %s: %w", d.Label, node.Name, err)
			}
			return np, nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]Trajectory, 0, len(designs))
	for di, d := range designs {
		out = append(out, Trajectory{Design: d, F: f,
			Points: pts[di*len(nodes) : (di+1)*len(nodes) : (di+1)*len(nodes)]})
	}
	return out, nil
}

// FindTrajectory returns the trajectory whose design label matches.
func FindTrajectory(ts []Trajectory, label string) (Trajectory, error) {
	for _, t := range ts {
		if t.Design.Label == label {
			return t, nil
		}
	}
	return Trajectory{}, fmt.Errorf("project: no trajectory labeled %q", label)
}
