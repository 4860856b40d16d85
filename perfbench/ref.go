package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/storage"
)

// recordRef regenerates the reference tables from the current code:
// `perfbench record-ref [-dir perfbench/ref]`. Run it only when a change
// is meant to alter simulated results, and say so in the change.
func recordRef(args []string) error {
	fs := flag.NewFlagSet("record-ref", flag.ContinueOnError)
	dir := fs.String("dir", filepath.Join("perfbench", "ref"), "directory of the reference tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sweep := map[string]json.RawMessage{}
	for _, c := range sweepCells() {
		res, err := core.Run(c.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name(), err)
		}
		sweep[c.name()] = runDoc(res)
	}
	opt := optRef{HandTpUS: map[string]float64{}, HandTeUS: map[string]float64{}}
	for _, n := range optMachines {
		res, err := core.Run(handConfig(model(n)))
		if err != nil {
			return fmt.Errorf("hand %s: %w", n, err)
		}
		opt.HandTpUS[n], opt.HandTeUS[n] = res.TpMeanUS(), res.TeMeanUS
	}
	if err := writeJSON(filepath.Join(*dir, "sweep.json"), sweep); err != nil {
		return err
	}
	return writeJSON(filepath.Join(*dir, "optimize.json"), opt)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return storage.Disk.WriteFile(path, append(b, '\n'), 0o644)
}
