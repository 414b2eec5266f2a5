package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

var listenRE = regexp.MustCompile(`msg=listening url=(http://[\d.:]+)`)

// logSink is lrd's stdout and stderr: it announces the listening URL once
// and keeps the tail of the log for error reports.
type logSink struct {
	mu     sync.Mutex
	buf    []byte
	found  bool
	listen chan string
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.found {
		if m := listenRE.FindSubmatch(l.buf); m != nil {
			l.found = true
			l.listen <- string(m[1])
		}
	}
	if len(l.buf) > 1<<16 {
		l.buf = l.buf[len(l.buf)-1<<15:]
	}
	return len(p), nil
}

func (l *logSink) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}

// daemon is one lrd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logs    *logSink
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	stopped sync.Once
	rssMB   float64
	stopErr error
}

// startDaemon boots lrd on a free loopback port and waits until it has
// stabilized its topology and announced its URL. The returned duration is
// the time from exec to that announcement.
func startDaemon(ctx context.Context, bin string, args []string) (*daemon, time.Duration, error) {
	logs := &logSink{listen: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = logs, logs
	// lrd must not outlive the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting lrd: %w", err)
	}
	d := &daemon{cmd: cmd, logs: logs, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	select {
	case d.base = <-logs.listen:
		return d, time.Since(start), nil
	case <-d.exited:
		return nil, 0, fmt.Errorf("lrd exited before listening (%v): %s", d.waitErr, logs.tail())
	case <-timeout.C:
		d.stop()
		return nil, 0, fmt.Errorf("lrd did not announce its address within 60s: %s", logs.tail())
	case <-ctx.Done():
		d.stop()
		return nil, 0, ctx.Err()
	}
}

// stop interrupts lrd, waits for its graceful drain (killing it after 20
// s), and returns its peak RSS in MB. It is idempotent.
func (d *daemon) stop() (float64, error) {
	d.stopped.Do(func() {
		if err := d.cmd.Process.Signal(os.Interrupt); err != nil && !errors.Is(err, os.ErrProcessDone) {
			d.stopErr = err
		}
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill() // the drain hung; Wait below reports it
			<-d.exited
			d.stopErr = fmt.Errorf("lrd did not drain within 20s: %s", d.logs.tail())
		}
		if d.stopErr == nil && d.waitErr != nil {
			d.stopErr = fmt.Errorf("lrd exited with %v: %s", d.waitErr, d.logs.tail())
		}
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	})
	return d.rssMB, d.stopErr
}
