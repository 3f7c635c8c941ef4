package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/sim"
)

// The worker protocol. A worker process (`p2psim -worker`, or a test
// binary re-exec'd through its TestMain hook) receives exactly one
// workerRequest as JSON on stdin, runs the config it carries, and
// writes newline-delimited JSON messages on stdout: heartbeats while
// the simulation advances, then a single result message. Classification
// happens on the supervisor side from the exit status, stderr and the
// message stream; the worker's only obligations are the result line on
// success, "panic: ..." on stderr with exit code 2 on a contained
// panic, and a nonzero exit otherwise.

// workerRequest is the supervisor→worker handshake: one variant's
// config, as the parent materialised it.
type workerRequest struct {
	Config sim.Config `json:"config"`
	// TracePath names the churn trace Config replays, which the config's
	// wire form leaves out; "" when it replays none.
	TracePath string `json:"trace_path,omitempty"`
	// Variant is the variant's index and Attempt the 1-based attempt;
	// only the fault injector reads them, so an injected fault can hit
	// one variant and clear after N attempts.
	Variant int `json:"variant"`
	Attempt int `json:"attempt"`
	// HeartbeatMillis is the requested heartbeat period (0 = 1000).
	HeartbeatMillis int `json:"heartbeat_millis,omitempty"`
}

// workerMessage is one stdout line from the worker.
type workerMessage struct {
	Type  string `json:"type"` // "heartbeat" or "result"
	Round int64  `json:"round,omitempty"`
	// Result is the finished run. Its wire form leaves out Config, which
	// the supervisor sent, and Trace, which only the parent-side trace
	// recorder uses, in-process.
	Result *sim.Result `json:"result,omitempty"`
}

// check says why a decoded result cannot stand in for a run of cfg, if
// it cannot: the reports read its collector and one observer per cfg's.
func check(res *sim.Result, cfg sim.Config) error {
	if res == nil || res.Collector == nil {
		return errors.New("no result with a collector")
	}
	if len(cfg.Observers) > 0 && (res.Observers == nil || res.Observers.Len() != len(cfg.Observers)) {
		return fmt.Errorf("result lacks the run's %d observers", len(cfg.Observers))
	}
	return nil
}

// faultEnv is the environment variable the worker's fault injector
// reads. Its value is a '|'-separated list of clauses of the form
// KIND@variantN[xM]: inject KIND into variant N's first M attempts
// (default 1, so retries succeed). Kinds: "panic" (a Go panic inside
// the worker), "hang" (block forever, never heartbeating — exercises
// stall/timeout kills), "exitC" (exit with code C), "kill9" (the worker
// SIGKILLs itself — indistinguishable from the OOM killer, which is the
// point). Example:
//
//	P2PSIM_FAULT='panic@variant3|hang@variant5x2|exit2@variant1'
//
// The injector exists for the supervisor's tests and chaos CI job; it
// does nothing unless the variable is set.
const faultEnv = "P2PSIM_FAULT"

// fault is one parsed injection clause.
type fault struct {
	kind     string // "panic", "hang", "exit", "kill9"
	exitCode int
	variant  int
	attempts int // fault fires while attempt <= attempts
}

// parseFaults parses a faultEnv value; empty input means no faults.
func parseFaults(spec string) ([]fault, error) {
	if spec == "" {
		return nil, nil
	}
	var out []fault
	for _, clause := range strings.Split(spec, "|") {
		kindStr, rest, ok := strings.Cut(clause, "@")
		if !ok {
			return nil, fmt.Errorf("experiments: fault clause %q: missing @variantN", clause)
		}
		var f fault
		switch {
		case kindStr == "panic" || kindStr == "hang" || kindStr == "kill9":
			f.kind = kindStr
		case strings.HasPrefix(kindStr, "exit"):
			code, err := strconv.Atoi(kindStr[len("exit"):])
			if err != nil || code < 1 || code > 255 {
				return nil, fmt.Errorf("experiments: fault clause %q: bad exit code", clause)
			}
			f.kind, f.exitCode = "exit", code
		default:
			return nil, fmt.Errorf("experiments: fault clause %q: unknown kind %q", clause, kindStr)
		}
		numStr, ok := strings.CutPrefix(rest, "variant")
		if !ok {
			return nil, fmt.Errorf("experiments: fault clause %q: want variantN after @", clause)
		}
		f.attempts = 1
		numStr, count, ok := strings.Cut(numStr, "x")
		var err error
		if ok {
			if f.attempts, err = strconv.Atoi(count); err != nil || f.attempts < 1 {
				return nil, fmt.Errorf("experiments: fault clause %q: bad attempt count", clause)
			}
		}
		if f.variant, err = strconv.Atoi(numStr); err != nil || f.variant < 0 {
			return nil, fmt.Errorf("experiments: fault clause %q: bad variant index", clause)
		}
		out = append(out, f)
	}
	return out, nil
}

// trigger fires the fault. It does not return for any kind.
func (f fault) trigger() {
	switch f.kind {
	case "panic":
		panic(fmt.Sprintf("injected fault: variant %d", f.variant))
	case "hang":
		// Not `select {}`: with every goroutine blocked the runtime's
		// deadlock detector would crash the process, which is an exit,
		// not a hang. Sleeping forever is invisible to it.
		for {
			time.Sleep(time.Hour)
		}
	case "exit":
		os.Exit(f.exitCode)
	case "kill9":
		// SIGKILL on Unix, TerminateProcess on Windows.
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			_ = p.Kill()
		}
		for { // the signal is fatal; never reached
			time.Sleep(time.Hour)
		}
	}
}

// injectFault fires the first configured fault matching this variant
// and attempt, if any.
func injectFault(spec string, variant, attempt int) error {
	faults, err := parseFaults(spec)
	if err != nil {
		return err
	}
	for _, f := range faults {
		if f.variant == variant && attempt <= f.attempts {
			f.trigger()
		}
	}
	return nil
}

// readRequest decodes one request from in and attaches the trace it
// names, refusing a config that Validate refuses: all a worker does
// before it runs anything. FuzzWorkerRequest holds it to that on
// arbitrary input.
func readRequest(in io.Reader) (workerRequest, error) {
	var req workerRequest
	if err := json.NewDecoder(in).Decode(&req); err != nil {
		return req, fmt.Errorf("bad request: %v", err)
	}
	if req.TracePath != "" {
		var err error
		if req.Config.Replay, err = churn.ReadTraceFile(req.TracePath); err != nil {
			return req, err
		}
	}
	_, err := req.Config.Validate()
	return req, err
}

// WorkerMain implements the worker side of the supervisor protocol:
// decode one request from in, run its config, stream heartbeats and the
// final result snapshot to out. The returned value is the process exit
// code: 0 on success, 2 for a contained panic (reported as "panic: ..."
// plus the stack on errw), 1 for anything else. `p2psim -worker` and
// the test binaries' TestMain hooks are the two callers.
func WorkerMain(in io.Reader, out, errw io.Writer) int {
	req, err := readRequest(in)
	if err == nil {
		err = injectFault(os.Getenv(faultEnv), req.Variant, req.Attempt)
	}
	if err != nil {
		fmt.Fprintf(errw, "worker: %v\n", err)
		return 1
	}

	var round atomic.Int64
	enc := json.NewEncoder(out)
	var mu sync.Mutex
	write := func(m workerMessage) error {
		mu.Lock()
		defer mu.Unlock()
		return enc.Encode(m)
	}

	period := time.Duration(req.HeartbeatMillis) * time.Millisecond
	if period <= 0 {
		period = time.Second
	}
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if write(workerMessage{Type: "heartbeat", Round: round.Load()}) != nil {
					return // supervisor went away; the run's exit status covers it
				}
			}
		}
	}()
	defer func() {
		close(stop)
		hb.Wait()
	}()

	res, err := runConfig(context.Background(), req.Config, nil, func(done, _ int64) { round.Store(done) })
	var pe *sim.PanicError
	switch {
	case errors.As(err, &pe):
		fmt.Fprintf(errw, "panic: %v\n%s", pe.Value, pe.Stack)
		return 2
	case err != nil:
		fmt.Fprintf(errw, "worker: %v\n", err)
		return 1
	}
	if err := write(workerMessage{Type: "result", Result: res}); err != nil {
		fmt.Fprintf(errw, "worker: writing result: %v\n", err)
		return 1
	}
	return 0
}
