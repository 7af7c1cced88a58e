package selforg_test

// Crash-recovery integration test: a helper process (this test binary
// re-exec'd) writes through a durable column and prints an ACK line per
// acknowledged insert; the parent SIGKILLs it mid-workload, recovers
// the column from the directory the helper wrote, and verifies
//
//   - every acknowledged write survived (the durability promise), and
//   - the recovered content equals an uninterrupted in-memory run of
//     the surviving writes — per writer a contiguous prefix extending
//     the acked prefix by at most the one op in flight at the kill.
//
// The matrix spans strategy × shards; one combination runs with
// Fsync=true (the machine-crash configuration; for SIGKILL both modes
// must hold).

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"selforg"
	"selforg/internal/wal"
)

const (
	crashExtentHi  = 99_999
	crashSeedLo    = 50_000 // initial load lives in [crashSeedLo, crashExtentHi]
	crashSeedN     = 5_000
	crashWriters   = 4
	crashPerWriter = 10_000 // writer w owns [w*crashPerWriter, (w+1)*crashPerWriter)
)

func crashOpts(strategy string, shards int, fsync bool, dir string) selforg.Options {
	o := selforg.Options{Model: selforg.APM, Shards: shards}
	if strategy == "repl" {
		o.Strategy = selforg.Replication
	}
	// A small merge threshold forces frequent merge-backs. Checkpoints
	// come from log volume (64 KB of log): the parent kills the helper
	// only after two checkpoint generations committed, so across runs
	// the kill lands in every phase of the log/checkpoint/truncate
	// cycle.
	o.DeltaMaxBytes = 4 * 1024
	o.Durability = selforg.Durability{Dir: dir, Fsync: fsync}
	return o
}

func crashSeed() []int64 { return seedVals(41, crashSeedN, crashSeedLo, crashExtentHi) }

// TestCrashHelper is the re-exec'd child: it writes sequential unique
// values per writer, printing "ACK <writer> <index>" after each
// acknowledged insert, until the parent kills it.
func TestCrashHelper(t *testing.T) {
	dir := os.Getenv("SELFORG_CRASH_DIR")
	if dir == "" {
		t.Skip("crash helper: run by TestCrashRecoverySIGKILL")
	}
	shards, _ := strconv.Atoi(os.Getenv("SELFORG_CRASH_SHARDS"))
	fsync := os.Getenv("SELFORG_CRASH_FSYNC") == "1"
	opts := crashOpts(os.Getenv("SELFORG_CRASH_STRATEGY"), shards, fsync, dir)
	col, err := selforg.New(selforg.Interval{Lo: 0, Hi: crashExtentHi}, crashSeed(), opts)
	if err != nil {
		fmt.Println("HELPER_ERR", err)
		os.Exit(1)
	}
	var mu sync.Mutex // ACK lines must not interleave
	var wg sync.WaitGroup
	for w := 0; w < crashWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < crashPerWriter; i++ {
				if _, err := col.Insert(int64(w*crashPerWriter + i)); err != nil {
					fmt.Println("HELPER_ERR", err)
					os.Exit(1)
				}
				mu.Lock()
				fmt.Printf("ACK %d %d\n", w, i)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// Exhausted the ranges without being killed (should not happen at
	// the parent's kill threshold) — park until the kill.
	time.Sleep(time.Minute)
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if os.Getenv("SELFORG_CRASH_DIR") != "" {
		t.Skip("inside helper")
	}
	combos := []struct {
		strategy string
		shards   int
		fsync    bool
	}{
		{"segm", 1, false},
		{"segm", 3, true},
		{"repl", 1, false},
		{"repl", 3, false},
	}
	for _, cb := range combos {
		cb := cb
		t.Run(fmt.Sprintf("%s-shards%d-fsync%v", cb.strategy, cb.shards, cb.fsync), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$")
			cmd.Env = append(os.Environ(),
				"SELFORG_CRASH_DIR="+dir,
				"SELFORG_CRASH_STRATEGY="+cb.strategy,
				"SELFORG_CRASH_SHARDS="+strconv.Itoa(cb.shards),
				"SELFORG_CRASH_FSYNC="+map[bool]string{false: "0", true: "1"}[cb.fsync],
			)
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}

			// Drain acks continuously (the reader must not stop before
			// the kill lands — an unread ACK is still an ACK); kill once
			// every writer has acks, the stream is deep enough to have
			// crossed merge-backs, and the manifest shows two committed
			// checkpoint generations, so the kill lands inside a later
			// log/checkpoint/truncate cycle.
			var mu sync.Mutex
			acked := make([]int, crashWriters) // next unacked index per writer
			total := 0
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				sc := bufio.NewScanner(out)
				for sc.Scan() {
					var w, i int
					if n, _ := fmt.Sscanf(sc.Text(), "ACK %d %d", &w, &i); n != 2 {
						continue
					}
					mu.Lock()
					if i != acked[w] {
						t.Errorf("writer %d acked %d out of order (want %d)", w, i, acked[w])
					}
					acked[w] = i + 1
					total++
					mu.Unlock()
				}
			}()
			deadline := time.Now().Add(30 * time.Second)
			for {
				mu.Lock()
				ready := total >= 2_500
				for _, a := range acked {
					ready = ready && a > 0
				}
				mu.Unlock()
				if ready {
					gen, _, _, err := wal.ReadManifest(filepath.Join(dir, "CHECKPOINT"))
					ready = err == nil && gen >= 2
				}
				if ready {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					t.Fatal("helper produced too few acks before deadline")
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := cmd.Process.Kill(); err != nil { // SIGKILL, no shutdown path runs
				t.Fatal(err)
			}
			<-readerDone // EOF: every ACK the helper printed is counted
			cmd.Wait()   // expected: killed
			if t.Failed() {
				return
			}

			// Recover: New over the helper's directory replays its logs.
			re, err := selforg.New(selforg.Interval{Lo: 0, Hi: crashExtentHi}, crashSeed(),
				crashOpts(cb.strategy, cb.shards, cb.fsync, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()

			// Per writer: every acked index present, the survivors form
			// a contiguous prefix, and at most one unacked op (the one
			// in flight at the kill) rode along.
			survived := make([]int, crashWriters)
			for w := 0; w < crashWriters; w++ {
				base := int64(w * crashPerWriter)
				k := 0
				for ; k < crashPerWriter; k++ {
					n, _ := re.Count(base+int64(k), base+int64(k))
					if n == 0 {
						break
					}
					if n != 1 {
						t.Fatalf("writer %d index %d has count %d", w, k, n)
					}
				}
				if k < acked[w] {
					t.Fatalf("writer %d: acked %d writes, only %d recovered", w, acked[w], k)
				}
				if k > acked[w]+1 {
					t.Fatalf("writer %d: %d recovered for %d acked (more than one in flight?)", w, k, acked[w])
				}
				// The prefix is exact: nothing beyond it survived.
				for j := k + 1; j < crashPerWriter; j += 997 {
					if n, _ := re.Count(base+int64(j), base+int64(j)); n != 0 {
						t.Fatalf("writer %d: gap — index %d present beyond prefix %d", w, j, k)
					}
				}
				survived[w] = k
			}

			// Scan/count equivalence against an uninterrupted run of
			// exactly the surviving writes.
			refOpts := crashOpts(cb.strategy, cb.shards, cb.fsync, "")
			refOpts.Durability = selforg.Durability{}
			ref, err := selforg.New(selforg.Interval{Lo: 0, Hi: crashExtentHi}, crashSeed(), refOpts)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < crashWriters; w++ {
				for i := 0; i < survived[w]; i++ {
					if _, err := ref.Insert(int64(w*crashPerWriter + i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			requireSameContent(t, 0, crashExtentHi, re, ref)
		})
	}
}
