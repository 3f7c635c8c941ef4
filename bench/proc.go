package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"syscall"
	"time"
)

// procResult is one process measured from outside: wall from exec to
// exit, CPU and peak memory from its rusage, which includes the
// children it waited for (so p2psim -procs workers count).
type procResult struct {
	WallS      float64
	CPUS       float64
	PeakRSSMiB float64
	Stdout     string
	Stderr     string
	Start, End int64 // Unix nanoseconds
	Err        error // non-nil when it could not run, exited non-zero or timed out
}

// cpuSeconds is user plus system time of an rusage.
func cpuSeconds(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssMiB converts ru_maxrss, which Linux reports in KiB.
func rssMiB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// runProc runs argv in dir and waits for it. When ctx ends first, the
// whole process group is killed, so workers of a supervised campaign go
// with it.
func runProc(ctx context.Context, dir string, argv ...string) procResult {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}

	var r procResult
	start := time.Now()
	if err := cmd.Start(); err != nil {
		r.Err = err
		return r
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case r.Err = <-done:
	case <-ctx.Done():
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // the group may already be gone
		<-done
		r.Err = errors.Join(errors.New(argv[0]+": killed"), ctx.Err())
	}
	end := time.Now()
	r.WallS = end.Sub(start).Seconds()
	r.Start, r.End = start.UnixNano(), end.UnixNano()
	r.Stdout, r.Stderr = stdout.String(), stderr.String()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		r.CPUS = cpuSeconds(ru)
		r.PeakRSSMiB = rssMiB(ru)
	}
	return r
}
