package sigrepo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// acquireLock serializes repository writers through a lock file
// created with O_CREATE|O_EXCL. A competing writer retries with
// jittered exponential backoff for lockWait — jitter breaks the
// retry lockstep of writers that collided on the same attempt, which
// a fixed interval would repeat on every round — and publishes the
// total time spent waiting under repo.lock_wait_ns. A crashed writer
// cannot release, so its lock is taken over: at once when the lock
// names this host and a pid that no longer exists (git gc's gc.pid
// rule), otherwise once it is older than staleLockAge. The returned
// release func removes the lock.
func (r *Repo) acquireLock() (func(), error) {
	path := filepath.Join(r.dir, lockName)
	host, _ := os.Hostname()
	start := time.Now()
	deadline := start.Add(r.lockWait)
	backoff := r.retryBackoff
	// The wait counter covers every exit path: contended acquisitions
	// show up in the metric whether they eventually won or timed out.
	defer func() {
		if waited := time.Since(start); waited > time.Millisecond {
			r.bump("repo.lock_wait_ns", waited.Nanoseconds())
		}
	}()
	for {
		f, err := r.fs.CreateExclusive(path)
		if err == nil {
			fmt.Fprintf(f, "pid %d\nhost %s\nacquired %s\n", os.Getpid(), host, time.Now().Format(time.RFC3339Nano))
			f.Sync()
			f.Close()
			return func() { r.fs.Remove(path) }, nil
		}
		// Somebody holds it.
		if fi, serr := r.fs.Stat(path); serr == nil {
			why := ""
			if pid := r.deadHolder(path, host); pid > 0 {
				why = fmt.Sprintf("holder pid %d on this host is gone", pid)
			} else if age := time.Since(fi.ModTime()); age > r.staleLockAge {
				why = fmt.Sprintf("stale lock (age %v)", age.Round(time.Millisecond))
			}
			if why != "" {
				r.fs.Remove(path)
				r.bump("repo.lock_takeovers", 1)
				r.event("repo.lock_takeover", why+"; broken and taken over")
				continue
			}
		} else if os.IsNotExist(serr) {
			continue // released between attempts; try again immediately
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("sigrepo: repository %s is locked (lock file %s; stale after %v)",
				r.dir, path, r.staleLockAge)
		}
		time.Sleep(jittered(backoff))
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// deadHolder returns the pid a lock file names when the lock was taken
// on this host by a process that no longer exists (kill(pid, 0) fails
// with ESRCH), and 0 otherwise: a lock from another host, one without
// a host line, or one whose holder may still run keeps the age rule.
func (r *Repo) deadHolder(path, host string) int {
	data, err := r.fs.ReadFile(path)
	if err != nil || host == "" {
		return 0
	}
	pid, onHost := 0, false
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "pid "); ok {
			pid, _ = strconv.Atoi(v)
		} else if v, ok := strings.CutPrefix(line, "host "); ok {
			onHost = v == host
		}
	}
	if !onHost || pid <= 0 || !errors.Is(syscall.Kill(pid, 0), syscall.ESRCH) {
		return 0
	}
	return pid
}
