package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/report"
)

// modelSelection is a resolved -model/-model-params pair; the default
// backend is an ordinary selection like any other.
type modelSelection struct {
	Name    string        // canonical backend name, e.g. "chung"
	Model   model.Model   // constructed instance
	Factory model.Factory // deferred constructor, for the projections
}

// modelFlag registers the shared -model and -model-params flags and
// returns a resolver to run after Parse: it validates the pair against
// the backend registry (unknown names and malformed or unknown params
// fail fast, before any evaluation starts).
func modelFlag(fs *flag.FlagSet) func() (modelSelection, error) {
	name := fs.String("model", "", "model backend (run `heterosim models` to list; default chung)")
	params := fs.String("model-params", "", "backend parameters as a JSON object (see `heterosim models`)")
	return func() (modelSelection, error) {
		canon, err := model.Canonical(*name)
		if err != nil {
			return modelSelection{}, err
		}
		var raw json.RawMessage
		if *params != "" {
			raw = json.RawMessage(*params)
		}
		m, canonRaw, err := model.New(canon, 0, 0, raw)
		if err != nil {
			return modelSelection{}, fmt.Errorf("model %s: %w", canon, err)
		}
		return modelSelection{Name: canon, Model: m, Factory: model.NewFactory(canon, canonRaw)}, nil
	}
}

// printModelBanner notes a non-default backend above a subcommand's
// output; the default prints nothing, keeping baseline output stable.
func printModelBanner(sel modelSelection) {
	if sel.Name != model.DefaultName {
		fmt.Printf("Model backend: %s\n\n", sel.Name)
	}
}

// cmdModels lists the model-backend registry.
func cmdModels(args []string) error {
	fs := newFlagSet("models")
	jsonOut := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	infos := model.Infos()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(infos)
	}
	t := report.NewTable(
		"Model backends (select with -model NAME [-model-params JSON] or the API's model field)",
		"Name", "Default", "Capabilities", "Params")
	for _, info := range infos {
		def := ""
		if info.Default {
			def = "yes"
		}
		var params []string
		for _, p := range info.Params {
			if p.Default != "" {
				params = append(params, fmt.Sprintf("%s (%s, default %s)", p.Name, p.Type, p.Default))
			} else {
				params = append(params, fmt.Sprintf("%s (%s)", p.Name, p.Type))
			}
		}
		if len(params) == 0 {
			params = []string{"-"}
		}
		t.AddRow(info.Name, def, strings.Join(info.Capabilities, ","), strings.Join(params, "; "))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	for _, info := range infos {
		fmt.Printf("%s: %s\n", info.Name, info.Description)
	}
	return nil
}
