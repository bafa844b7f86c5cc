package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/scenario"
	"github.com/calcm/heterosim/internal/sensitivity"
	"github.com/calcm/heterosim/internal/server"
	"github.com/calcm/heterosim/internal/sweep"
	"github.com/calcm/heterosim/internal/ucore"
)

// This file calls the model and domain packages directly, on the same
// inputs the cold requests carry: the "model" rung of the ladder and the
// per-package layer timings. It uses only their exported functions.

// workers is the evaluation pool the daemon defaults to.
var workers = runtime.GOMAXPROCS(0)

func designOf(ds server.DesignSpec, w paper.WorkloadID) (core.Design, error) {
	switch ds.Kind {
	case "sym":
		return core.Design{Kind: core.SymCMP, Label: "(0) SymCMP"}, nil
	case "asym":
		return core.Design{Kind: core.AsymCMP, Label: "(1) AsymCMP"}, nil
	}
	p, ok := ucore.PublishedParams(paper.DeviceID(ds.Device), w)
	if !ok {
		return core.Design{}, fmt.Errorf("no published parameters for %s on %s", ds.Device, w)
	}
	return core.Design{Kind: core.Het, Label: ds.Device, UCore: bounds.UCore{Mu: p.Mu, Phi: p.Phi}}, nil
}

func nodeOr(n string) string {
	if n == "" {
		return "40nm"
	}
	return n
}

// point is one backend's optimum for a design point: what an optimize
// evaluates after Prepare.
func point(backend string, ds server.DesignSpec, w string, f float64, node string) (core.Point, error) {
	m, _, err := model.New(backend, 0, 0, nil)
	if err != nil {
		return core.Point{}, err
	}
	d, err := designOf(ds, paper.WorkloadID(w))
	if err != nil {
		return core.Point{}, err
	}
	b, err := project.DefaultBudgets(paper.WorkloadID(w), nodeOr(node))
	if err != nil {
		return core.Point{}, err
	}
	return m.Optimize(d, f, b)
}

func optimizeWork(r server.OptimizeRequest) ([]byte, error) {
	pt, err := point(r.Model, r.Design, r.Workload, r.F, r.Node)
	if err != nil {
		return nil, err
	}
	return json.Marshal(pt)
}

// sweepWork evaluates a sweep request's grid cell by cell through
// sweep.Grid, scaling the node's power budget on the second axis.
func sweepWork(r server.SweepRequest) ([]byte, error) {
	w := paper.WorkloadID(r.Workload)
	m, _, err := model.New(r.Model, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	d, err := designOf(r.Design, w)
	if err != nil {
		return nil, err
	}
	b, err := project.DefaultBudgets(w, nodeOr(r.Node))
	if err != nil {
		return nil, err
	}
	fs, err := sweep.Range(r.F.Lo, r.F.Hi, r.F.Steps)
	if err != nil {
		return nil, err
	}
	ps, err := sweep.Range(r.PowerScale.Lo, r.PowerScale.Hi, r.PowerScale.Steps)
	if err != nil {
		return nil, err
	}
	g, err := sweep.NewGrid(sweep.Axis{Name: "f", Values: fs}, sweep.Axis{Name: "powerScale", Values: ps})
	if err != nil {
		return nil, err
	}
	speed := make([]float64, g.Size())
	err = g.Cells(context.Background(), workers, func(flat int, v []float64) error {
		bb := b
		bb.Power *= v[1]
		pt, err := m.Optimize(d, v[0], bb)
		if err == nil {
			speed[flat] = pt.Speedup
		}
		return nil // infeasible cells are reported, not errors
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(speed)
}

func factory(backend string) model.Factory {
	if backend == "" || backend == model.DefaultName {
		return nil
	}
	return model.NewFactory(backend, nil)
}

// compareWork runs each pair's scenario against the baseline.
func compareWork(r server.CompareRequest) ([]byte, error) {
	var out []project.Trajectory
	for _, p := range r.Pairs {
		sc, err := scenario.Get(scenario.ID(p.Scenario))
		if err != nil {
			return nil, err
		}
		backend := p.Model
		if backend == "" {
			backend = r.Model
		}
		base, alt, err := scenario.CompareModelCtx(context.Background(), sc, paper.WorkloadID(r.Workload),
			r.F, workers, factory(backend))
		if err != nil {
			return nil, err
		}
		out = append(append(out, base...), alt...)
	}
	return json.Marshal(len(out))
}

// frontierWork is the trajectory set a frontier stream emits.
func frontierWork(r server.FrontierRequest) ([]byte, error) {
	sc, err := scenario.Get(scenario.ID(r.Scenario))
	if err != nil {
		return nil, err
	}
	ts, err := scenario.RunModelCtx(context.Background(), sc, paper.WorkloadID(r.Workload), r.F, workers, factory(r.Model))
	if err != nil {
		return nil, err
	}
	return json.Marshal(len(ts))
}

// projectWork is one default-configuration trajectory projection.
func projectWork(w string, f float64) error {
	_, err := project.ProjectCtx(context.Background(), project.DefaultConfig(paper.WorkloadID(w)), f)
	return err
}

// sensitivityInputs resolves a sensitivity request's design point.
func sensitivityInputs(r server.SensitivityRequest) (model.Model, core.Design, bounds.Budgets, error) {
	w := paper.WorkloadID(r.Workload)
	m, _, err := model.New(r.Model, 0, 0, nil)
	if err != nil {
		return nil, core.Design{}, bounds.Budgets{}, err
	}
	d, err := designOf(r.Design, w)
	if err != nil {
		return nil, core.Design{}, bounds.Budgets{}, err
	}
	b, err := project.DefaultBudgets(w, nodeOr(r.Node))
	return m, d, b, err
}

func monteCarloWork(r server.SensitivityRequest) (sensitivity.Interval, error) {
	m, d, b, err := sensitivityInputs(r)
	if err != nil {
		return sensitivity.Interval{}, err
	}
	return sensitivity.MonteCarloCtx(context.Background(), m, d, r.F, b, 0.2, r.Samples, 1, workers)
}

// sensitivityWork is the elasticity profile plus the Monte Carlo
// interval, as /v1/sensitivity evaluates them.
func sensitivityWork(r server.SensitivityRequest) ([]byte, error) {
	m, d, b, err := sensitivityInputs(r)
	if err != nil {
		return nil, err
	}
	prof, err := sensitivity.ProfileCtx(context.Background(), m, d, r.F, b, 0.01, workers)
	if err != nil {
		return nil, err
	}
	iv, err := monteCarloWork(r)
	if err != nil {
		return nil, err
	}
	return json.Marshal([]any{len(prof), iv})
}
