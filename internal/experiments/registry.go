package experiments

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// Options configures a registry run.
type Options struct {
	// Knobs are the run settings every campaign of the run takes; zero
	// values are the paper's configuration at the default scale.
	Knobs
	// Parallelism bounds concurrent variants, in this process or in
	// worker processes; values below 1 mean runtime.NumCPU().
	Parallelism int
	OutDir      string // "" = don't write files
	// Supervisor, when non-nil, runs every variant in a worker process
	// of the fault-tolerant supervisor (Runner.Supervisor), with
	// bit-identical results. Unless Resume is set, RunCtx truncates the
	// JournalPath once per call, on a copy of *Supervisor.
	Supervisor *Supervisor
	// Events, when non-nil, receives the typed event stream of every
	// campaign the experiment runs, progress text included (see
	// Event.Message).
	Events func(Event)
}

// Summary is what an experiment reports back to the CLI.
type Summary struct {
	Name  string
	Files []string
	Text  string
}

// Names lists the runnable experiment ids: the campaign table's, then "all".
func Names() []string {
	var names []string
	for _, c := range campaigns {
		names = append(names, c.ids...)
	}
	return append(names, "all")
}

// allIDs lists what "all" runs: every entry that needs no external trace.
func allIDs() []string {
	var ids []string
	for _, c := range campaigns {
		if !c.trace || c.record != nil {
			ids = append(ids, c.ids[0])
		}
	}
	return ids
}

// RunCtx executes an experiment by id — a campaign table entry, or
// "all" — over the Runner, its variants in this process or, with
// opts.Supervisor, in supervised worker processes, streaming events to
// opts.Events, honouring ctx cancellation, and writes the experiment's
// data files. Every id is resolved and its spec checked before the
// checkpoint journal is touched, so a mistyped run leaves the journal as
// it was.
func RunCtx(ctx context.Context, name string, opts Options) ([]Summary, error) {
	opts.Seed = cmp.Or(opts.Seed, 1)
	ids := []string{name}
	if name == "all" {
		ids = allIDs()
	}
	entries := make([]*campaign, len(ids))
	for i, id := range ids {
		if entries[i] = campaignByID(id); entries[i] == nil {
			return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", name, Names())
		}
		if err := entries[i].check(entries[i].spec(opts)); err != nil {
			return nil, err
		}
	}
	// A fresh supervised run truncates the journal exactly once, then
	// flips to resume semantics: every campaign of this call (several
	// for "all") appends to the same journal, disambiguated by spec
	// fingerprints.
	if s := opts.Supervisor; s != nil && s.JournalPath != "" && !s.Resume {
		if err := s.checkTimeout(); err != nil {
			return nil, err
		}
		if dir := filepath.Dir(s.JournalPath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("experiments: creating journal directory: %w", err)
			}
		}
		if err := os.WriteFile(s.JournalPath, nil, 0o644); err != nil {
			return nil, fmt.Errorf("experiments: truncating journal: %w", err)
		}
		resumed := *s
		resumed.Resume = true
		opts.Supervisor = &resumed
	}
	var all []Summary
	for _, c := range entries {
		s, err := c.run(ctx, opts, c.spec(opts))
		if err != nil {
			return all, err
		}
		all = append(all, s...)
	}
	return all, nil
}
