package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"schedsearch/internal/federation"
)

// spawnShardProcs launches n schedd shard child processes on loopback
// ports (fanout mode): each child re-executes this binary with the
// pass-through policy flags in baseArgs plus its own near-even slice of
// capacity, and — when dur.path is set — its own journal at
// <path>.shard-N with the supervisor's group-commit and compaction
// settings. The children's listen addresses are read from their
// parseable "listening on HOST:PORT" start-up lines; base URLs are
// returned in shard order once every child is accepting.
//
// Leftover non-empty shard journals are rotated aside first (see
// rotateShardJournal).
//
// On a partial boot failure every already-started child is killed and
// reaped before the error returns.
func spawnShardProcs(n, capacity int, baseArgs []string, dur durOptions) (urls []string, procs []*exec.Cmd, err error) {
	caps, err := federation.PartitionCapacity(capacity, n)
	if err != nil {
		return nil, nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			for _, c := range procs {
				_ = c.Process.Kill()
				_ = c.Wait()
			}
		}
	}()
	for i := 0; i < n; i++ {
		args := append([]string(nil), baseArgs...)
		args = append(args, "-addr", "127.0.0.1:0", "-capacity", strconv.Itoa(caps[i]))
		if dur.path != "" {
			var spath string
			if spath, err = rotateShardJournal(dur.path, i); err != nil {
				return nil, nil, err
			}
			args = append(args,
				"-journal", spath,
				"-group-commit", strconv.Itoa(dur.group),
				"-compact-every", strconv.Itoa(dur.compactEvery))
		}
		cmd := exec.Command(self, args...)
		// Children do not inherit the supervisor's stderr: N processes
		// interleaving raw bytes on one descriptor shreds log lines.
		// Each child's stderr is forwarded line-by-line through the
		// supervisor's structured logger, tagged with the shard index.
		stderr, perr := cmd.StderrPipe()
		if perr != nil {
			err = perr
			return nil, nil, err
		}
		stdout, perr := cmd.StdoutPipe()
		if perr != nil {
			err = perr
			return nil, nil, err
		}
		if err = cmd.Start(); err != nil {
			return nil, nil, err
		}
		go forwardShardStderr(i, stderr)
		procs = append(procs, cmd)
		br := bufio.NewReader(stdout)
		line, rerr := br.ReadString('\n')
		if rerr != nil {
			err = fmt.Errorf("shard %d: reading its listen line: %w", i, rerr)
			return nil, nil, err
		}
		k := strings.LastIndex(line, "listening on ")
		if k < 0 {
			err = fmt.Errorf("shard %d: unexpected start-up line %q", i, line)
			return nil, nil, err
		}
		urls = append(urls, "http://"+strings.TrimSpace(line[k+len("listening on "):]))
		// Keep the child's stdout drained (it prints final metrics JSON
		// on exit) so it never blocks on a full pipe.
		go io.Copy(io.Discard, br)
		logger.Info("spawned fanout shard", "shard", i, "shards", n, "nodes", caps[i], "url", urls[i])
	}
	return urls, procs, nil
}

// forwardShardStderr relays one fanout child's stderr through the
// supervisor's logger, one record per line, tagged with the child's
// shard index. The child already emits structured slog text lines; the
// forward keeps them whole (no interleaving mid-line with siblings)
// and attributes them. The goroutine exits on the pipe's EOF when the
// child does.
func forwardShardStderr(shard int, r io.Reader) {
	lg := logger.With("shard", shard)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if line := strings.TrimRight(sc.Text(), " \t\r"); line != "" {
			lg.Info(line)
		}
	}
}
