package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark started and has not yet
// waited for, so an interrupted run leaves nothing behind.
var children struct {
	mu   sync.Mutex
	live map[*exec.Cmd]bool
}

func trackChild(cmd *exec.Cmd, live bool) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.live == nil {
		children.live = map[*exec.Cmd]bool{}
	}
	if live {
		children.live[cmd] = true
	} else {
		delete(children.live, cmd)
	}
}

// killChildren SIGKILLs and reaps every tracked child.
func killChildren() {
	children.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(children.live))
	for cmd := range children.live {
		cmds = append(cmds, cmd)
	}
	children.live = nil
	children.mu.Unlock()
	for _, cmd := range cmds {
		_ = cmd.Process.Kill() // already-exited children report an error we don't need
		_ = cmd.Wait()
	}
}

// runChild runs a short-lived helper to completion under child tracking.
func runChild(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	trackChild(cmd, true)
	err := cmd.Wait()
	trackChild(cmd, false)
	return err
}

// serverProc is one spawned ssb-serve.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
}

// startServer spawns ssb-serve on a free loopback port with the given
// flags and returns once /stats answers.
func startServer(e *env, logName string, args ...string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(e.work, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.serveBin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, err
	}
	trackChild(cmd, true)
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := e.client.stats(p.base); err == nil {
			return p, nil
		}
		if err := syscall.Kill(cmd.Process.Pid, 0); err != nil || time.Now().After(deadline) {
			p.kill()
			tail, _ := os.ReadFile(logf.Name())
			return nil, fmt.Errorf("ssb-serve %v never answered /stats; log:\n%s", args, tail)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// wait reaps the child and releases its log.
func (p *serverProc) wait() error {
	err := p.cmd.Wait()
	trackChild(p.cmd, false)
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// stop asks for the graceful drain (SIGTERM: in-flight requests finish, the
// write store flushes, the WAL closes) and waits for exit.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return p.wait()
}

// kill is the crash: SIGKILL, then reap. The exit error is the signal
// itself, so it is not reported.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // the only failure is "already exited"
	_ = p.wait()
}

// cpuTicks returns the server's utime+stime in clock ticks (USER_HZ, 100/s
// on Linux) from /proc/<pid>/stat.
func (p *serverProc) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unparseable /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparseable utime/stime in /proc stat line")
	}
	return utime + stime, nil
}

const ticksPerSecond = 100

// peakRSSMB returns the server's VmHWM in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
