package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// child is one swimd process under test.
type child struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error // exit status, valid once exited is closed
}

// startSwimd starts swimd with args and waits until it listens. The
// child is killed if the benchmark dies first.
func startSwimd(bin string, args []string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting swimd: %w", err)
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Read stdout to EOF before Wait, as os/exec requires.
		br := bufio.NewReader(out)
		for {
			line, err := br.ReadString('\n')
			if a, ok := strings.CutPrefix(strings.TrimSpace(line), "swimd: serving on "); ok {
				addr <- a
				break
			}
			if err != nil {
				break
			}
		}
		_, _ = io.Copy(io.Discard, br)
		c.err = cmd.Wait()
		close(c.exited)
	}()
	select {
	case c.addr = <-addr:
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("swimd exited before listening: %v", c.err)
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, errors.New("swimd did not start listening within 60s")
	}
}

func (c *child) address() string { return c.addr }

// stop shuts swimd down with SIGTERM, as an operator would, and waits
// for it to exit (killing it if the drain hangs).
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
		return c.err
	case <-time.After(20 * time.Second):
		c.kill()
		return errors.New("swimd did not exit within 20s of SIGTERM")
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
}

// cpuSeconds reads the user+system CPU time swimd has used: its
// process CPU clock while it runs (nanosecond precision, unlike /proc's
// clock ticks), its resource usage once it has exited.
func (c *child) cpuSeconds() (float64, error) {
	select {
	case <-c.exited:
		if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
		}
		return 0, errors.New("no resource usage for exited swimd")
	default:
	}
	// The CPU-time clock of process pid: MAKE_PROCESS_CPUCLOCK(pid,
	// CPUCLOCK_SCHED) in the kernel's encoding.
	clock := (^int32(c.cmd.Process.Pid))<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("reading swimd's CPU clock: %w", errno)
	}
	return float64(ts.Nano()) / 1e9, nil
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
