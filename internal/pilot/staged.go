package pilot

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/stage"
)

// Run is the pilot's transport for staged units: a plan's units the
// block store cannot serve each become one Compute-Unit that stages the
// unit's input blobs into its sandbox, runs the unit body over those
// files, and writes the payload and its engine accounting
// (metrics.json) back out — all data exchange goes through the
// filesystem (§3.3). Every unit's output is checked before any is
// folded into the pilot's sink or the store, so one malformed unit fails
// the run and leaves no trace. env carries the body's cancellation and
// instrumentation; once env.Cancel reports true a unit fails instead of
// staging out what its kernel cut short.
//
// A blob several units read is encoded once and staged into each of
// their sandboxes; the client holds every blob until the units run,
// inherent to the in-process pilot's staging model.
func (p *Pilot) Run(plan stage.Plan, store *blockstore.Store, env stage.Env) (any, error) {
	run := stage.Start(plan, store, p.metrics)
	units := run.Units()
	missing := run.Missing()
	blobs := make(map[string][]byte)
	descs := make([]UnitDescription, len(missing))
	for k, i := range missing {
		u := units[i]
		inputs := make(map[string][]byte, len(u.Inputs))
		for _, name := range u.Inputs {
			blob, ok := blobs[name]
			if !ok {
				var err error
				if blob, err = run.Blob(name); err != nil {
					return nil, err
				}
				blobs[name] = blob
			}
			inputs[name] = blob
		}
		descs[k] = UnitDescription{
			Name:        fmt.Sprintf("%s-unit-%d", u.Kind, i),
			InputFiles:  inputs,
			OutputFiles: []string{"payload.bin", "metrics.json"},
			Fn: func(sandbox string) error {
				var m engine.Metrics
				uenv := env
				uenv.Metrics = &m
				uenv.Fetch = func(name string) ([]byte, error) { return os.ReadFile(filepath.Join(sandbox, name)) }
				payload, err := stage.Exec(u, uenv)
				if err != nil {
					return err
				}
				if env.Cancelled() {
					return engine.ErrCancelled
				}
				if err := os.WriteFile(filepath.Join(sandbox, "payload.bin"), payload, 0o644); err != nil {
					return err
				}
				raw, err := json.Marshal(m.Snapshot())
				if err != nil {
					return err
				}
				return os.WriteFile(filepath.Join(sandbox, "metrics.json"), raw, 0o644)
			},
		}
	}
	handles := p.Submit(descs)
	if err := p.Wait(handles); err != nil {
		return nil, err
	}
	if err := collect(run, missing, handles); err != nil {
		return nil, err
	}
	return run.Result(), nil
}

// collect reads back and checks handles[k], which ran unit missing[k],
// and folds them only once every one has passed. The pilot fails a unit
// whose output files are missing, so an absent file never reaches here.
func collect(run *stage.Job, missing []int, handles []*Unit) error {
	done := make([]stage.Done, len(missing))
	for k, i := range missing {
		payload, _ := handles[k].Output("payload.bin")
		raw, _ := handles[k].Output("metrics.json")
		var snap engine.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return fmt.Errorf("pilot: unit %d metrics: %w", i, err)
		}
		d, err := stage.Check(run.Units()[i], payload, snap)
		if err != nil {
			return fmt.Errorf("pilot: unit %d: %w", i, err)
		}
		done[k] = d
	}
	for k, i := range missing {
		run.Fold(i, done[k])
	}
	return nil
}
