package main

import (
	"errors"
	"net"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// udpConn is the generator's client socket: a connected, blocking UDP
// socket driven with plain system calls. A blocked read wakes in the kernel
// the moment an answer lands, without waiting for the Go network poller, so
// the generator's own scheduling adds as little as it can to measured
// latency.
type udpConn struct {
	fd   int
	port int // local port
}

// errTimeout is returned by read when the receive timeout expires.
var errTimeout = errors.New("receive timeout")

// dialUDP binds 127.0.0.1:lport and connects to raddr.
func dialUDP(lport int, raddr *net.UDPAddr) (*udpConn, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	c := &udpConn{fd: fd, port: lport}
	// A receive buffer deep enough to hold every answer of a long stall of
	// the receiving thread: the kernel caps it at net.core.rmem_max.
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<20); err != nil {
		c.close()
		return nil, err
	}
	loop := [4]byte{127, 0, 0, 1}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Port: lport, Addr: loop}); err != nil {
		c.close()
		return nil, err
	}
	if err := syscall.Connect(fd, &syscall.SockaddrInet4{Port: raddr.Port, Addr: loop}); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *udpConn) close() { _ = syscall.Close(c.fd) }

// setTimeout bounds each later read; a read that waits longer returns
// errTimeout.
func (c *udpConn) setTimeout(d time.Duration) error {
	tv := syscall.NsecToTimeval(d.Nanoseconds())
	return syscall.SetsockoptTimeval(c.fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv)
}

func (c *udpConn) write(b []byte) error {
	for {
		_, err := syscall.Write(c.fd, b)
		if err != syscall.EINTR {
			return err
		}
	}
}

// read receives one datagram into b, blocking up to the receive timeout.
// A datagram refused by the peer (ICMP port unreachable) reads as
// ECONNREFUSED.
func (c *udpConn) read(b []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, b)
		switch err {
		case nil:
			return n, nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return 0, errTimeout
		}
		return 0, err
	}
}

// lockThread pins the calling goroutine to its OS thread and drops the
// thread's timer slack to 1 ns so that sleeps wake on time. Call it from a
// goroutine that exits when its phase ends: the runtime then discards the
// thread instead of reusing it.
func lockThread() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	// SCHED_FIFO at the lowest real-time priority, where permitted.
	const schedFIFO = 1
	param := struct{ priority int32 }{1}
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param)))
}

// sleepUntil sleeps in the kernel until t on a thread set up by lockThread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil)
	}
}
