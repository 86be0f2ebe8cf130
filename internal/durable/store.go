package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
)

// osExit is the process-death hook for the torn/short-write fault
// modes: after persisting the corrupted frame the store "loses power".
// A variable so the in-process tests can observe the crash instead of
// dying with it.
var osExit = os.Exit

// ErrClosed is returned by Append and Snapshot after Close.
var ErrClosed = errors.New("durable: store closed")

// Store is one data directory holding the current journal and the
// snapshot generations behind it. All methods are safe for concurrent
// use; Append serializes on one mutex, which is also what keeps the
// journal's record order meaningful.
type Store struct {
	dir    string
	policy Policy

	mu sync.Mutex
	// gen is guarded by mu: the current journal generation.
	gen uint64
	// f is guarded by mu: the current journal, opened for append.
	f *os.File
	// lastSync is guarded by mu: when the journal last reached disk
	// (interval policy).
	lastSync time.Time
	// closed is guarded by mu.
	closed bool
}

// Recovered is what Open found in the data directory.
type Recovered struct {
	// Snapshot holds the records of the newest loadable snapshot, nil
	// when the directory has none.
	Snapshot [][]byte
	// SnapshotGen is that snapshot's generation (0 when none).
	SnapshotGen uint64
	// Journal holds every journal record at or after SnapshotGen, in
	// append order across generations.
	Journal [][]byte
	// TruncatedBytes counts journal bytes dropped because the tail
	// failed length/CRC validation — the footprint of a crash
	// mid-append.
	TruncatedBytes int64
	// SkippedSnapshots counts snapshot files passed over as corrupt
	// before one loaded (or none did).
	SkippedSnapshots int
}

func journalName(gen uint64) string  { return fmt.Sprintf("journal-%08d.wal", gen) }
func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%08d.db", gen) }

// Open recovers dir and returns the store with its journal ready for
// appends. Corruption is never an error — a damaged snapshot falls
// back to the previous generation and a damaged journal tail is
// truncated — only real IO failures are.
func Open(dir string, policy Policy) (*Store, Recovered, error) {
	var rec Recovered
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, err
	}
	journals, snapshots, err := scanDir(dir)
	if err != nil {
		return nil, rec, err
	}

	// Newest snapshot that decodes cleanly wins; corrupt ones are
	// skipped, falling back generation by generation.
	for i := len(snapshots) - 1; i >= 0; i-- {
		gen := snapshots[i]
		buf, err := os.ReadFile(filepath.Join(dir, snapshotName(gen)))
		if err != nil {
			return nil, rec, err
		}
		payloads, valid := decodeFrames(buf)
		if valid != len(buf) {
			rec.SkippedSnapshots++
			continue
		}
		rec.Snapshot = payloads
		rec.SnapshotGen = gen
		break
	}

	// Replay every journal generation the snapshot does not cover, in
	// order. Only the newest generation can have a live (torn) tail,
	// but validation never hurts on the older ones.
	cur := rec.SnapshotGen
	if cur == 0 {
		cur = 1
	}
	for _, gen := range journals {
		if gen < rec.SnapshotGen {
			continue
		}
		if gen > cur {
			cur = gen
		}
		path := filepath.Join(dir, journalName(gen))
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, rec, err
		}
		payloads, valid := decodeFrames(buf)
		if valid != len(buf) {
			rec.TruncatedBytes += int64(len(buf) - valid)
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, rec, err
			}
		}
		for _, p := range payloads {
			if err := fault.InjectErr(fault.PointDurableReplay); err != nil {
				// Injected mid-replay corruption: keep what was read,
				// drop the rest of this generation — the same stance
				// as a real damaged tail.
				break
			}
			rec.Journal = append(rec.Journal, p)
		}
	}

	f, err := openJournal(dir, cur)
	if err != nil {
		return nil, rec, err
	}
	return &Store{dir: dir, policy: policy, gen: cur, f: f, lastSync: time.Now()}, rec, nil
}

// scanDir lists the journal and snapshot generations present, sorted
// ascending. Stray temp files from an interrupted snapshot are
// removed.
func scanDir(dir string) (journals, snapshots []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		var gen uint64
		switch {
		case parseGen(e.Name(), "journal-%08d.wal", &gen):
			journals = append(journals, gen)
		case parseGen(e.Name(), "snapshot-%08d.db", &gen):
			snapshots = append(snapshots, gen)
		case filepath.Ext(e.Name()) == ".tmp":
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	sort.Slice(journals, func(i, j int) bool { return journals[i] < journals[j] })
	sort.Slice(snapshots, func(i, j int) bool { return snapshots[i] < snapshots[j] })
	return journals, snapshots, nil
}

// parseGen matches name against the pattern and extracts its
// generation number.
func parseGen(name, pattern string, gen *uint64) bool {
	var g uint64
	if n, err := fmt.Sscanf(name, pattern, &g); err != nil || n != 1 {
		return false
	}
	// Round-trip to reject suffix garbage Sscanf tolerates.
	if fmt.Sprintf(pattern, g) != name {
		return false
	}
	*gen = g
	return true
}

// openJournal opens (creating if needed) the journal for gen and
// syncs the directory so the file's existence is durable.
func openJournal(dir string, gen uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalName(gen)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Append journals one record under the fsync policy. When it returns
// nil the record will survive a process crash; under PolicyAlways it
// also survives power loss.
func (s *Store) Append(record []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	frame := appendFrame(nil, record)
	frame, crash, err := fault.InjectWrite(fault.PointDurableAppend, frame)
	if err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if _, werr := s.f.Write(frame); werr != nil {
		return fmt.Errorf("durable: append: %w", werr)
	}
	if crash {
		// Corruption mode: the torn frame is on disk, and the process
		// is now dead — the restart harness takes it from here.
		s.f.Sync()
		osExit(3)
	}
	return s.maybeSyncLocked()
}

// maybeSyncLocked applies the fsync policy after an append.
//
//repolint:requires mu
func (s *Store) maybeSyncLocked() error {
	switch s.policy.Mode {
	case "always":
		return s.syncLocked()
	case "interval":
		if time.Since(s.lastSync) >= s.policy.Interval {
			return s.syncLocked()
		}
	}
	return nil
}

// syncLocked pushes the journal to stable storage.
//
//repolint:requires mu
func (s *Store) syncLocked() error {
	if err := fault.InjectErr(fault.PointDurableFsync); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	s.lastSync = time.Now()
	return nil
}

// Snapshot atomically persists a full-state image (the given records)
// as the next generation and rotates to a fresh journal, then prunes
// generations older than the previous one. On any error the previous
// snapshot and the current journal remain fully usable.
func (s *Store) Snapshot(records [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := fault.InjectErr(fault.PointDurableSnapshot); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	next := s.gen + 1
	var buf []byte
	for _, r := range records {
		buf = appendFrame(buf, r)
	}
	tmp := filepath.Join(s.dir, fmt.Sprintf("snapshot-%08d.tmp", next))
	if err := writeFileSync(tmp, buf); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName(next))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	nf, err := openJournal(s.dir, next)
	if err != nil {
		// The snapshot is durable but rotation failed; keep appending
		// to the old journal — replay from snapshot `next` plus the
		// old journal over-replays events the snapshot already holds,
		// which the record semantics upstream must tolerate anyway.
		return fmt.Errorf("durable: snapshot rotate: %w", err)
	}
	s.f.Close()
	s.f = nf
	s.gen = next
	s.lastSync = time.Now()
	s.pruneLocked(next)
	return nil
}

// pruneLocked removes generations no recovery path can need: anything
// older than the generation before cur (cur's snapshot could be the
// one that turns out corrupt, so cur-1's snapshot and journal stay as
// the fallback).
//
//repolint:requires mu
func (s *Store) pruneLocked(cur uint64) {
	if cur < 2 {
		return
	}
	keep := cur - 1
	journals, snapshots, err := scanDir(s.dir)
	if err != nil {
		return // pruning is best-effort; stale files only waste space
	}
	for _, g := range journals {
		if g < keep {
			os.Remove(filepath.Join(s.dir, journalName(g)))
		}
	}
	for _, g := range snapshots {
		if g < keep {
			os.Remove(filepath.Join(s.dir, snapshotName(g)))
		}
	}
}

// Close syncs and closes the journal. Further Appends fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creations in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
