package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Keeping the processors awake. On this host a halted vCPU is woken at the
// host scheduler's leisure, so whatever the program does after being idle —
// take a job from an empty queue, answer an RPC — starts late by an amount
// that changes from minute to minute: the median open-loop job latency of
// serve-openloop spread by 29 % over ten runs. For the length of a workload
// run, a child process therefore spins one thread per processor under
// SCHED_IDLE, the policy that runs only when the processor has nothing else
// to do and yields the instant anything else wakes: the equivalent of
// booting with idle=poll, the usual setting for latency measurements. With
// it the same ten runs spread by 5 %.

const keepAwakeEnv = "GNBODY_BENCH_KEEPAWAKE"

// keepAwake starts the spinner process and returns the function that stops
// it and waits for it to end.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), keepAwakeEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe() // the child leaves when this closes, even if we crash
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		stdin.Close()
		cmd.Wait()
	}, nil
}

// keepAwakeMain is the child's side: spin until standard input closes.
func keepAwakeMain() {
	const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				fmt.Fprintln(os.Stderr, "keep-awake: sched_setscheduler(SCHED_IDLE):", errno)
				os.Exit(1) // spinning at normal priority would take the processors from the program
			}
			for {
			}
		}()
	}
	io.Copy(io.Discard, os.Stdin)
}
