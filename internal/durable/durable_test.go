package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, p Policy) (*Store, Recovered) {
	t.Helper()
	s, rec, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

func appendAll(t *testing.T, s *Store, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
}

func asStrings(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func wantRecords(t *testing.T, got [][]byte, want ...string) {
	t.Helper()
	g := asStrings(got)
	if len(g) != len(want) {
		t.Fatalf("got %d records %q, want %d %q", len(g), g, len(want), want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, g[i], want[i])
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := []string{"", "a", "hello world", string(bytes.Repeat([]byte{0}, 4096))}
	for _, p := range payloads {
		buf = appendFrame(buf, []byte(p))
	}
	got, valid := decodeFrames(buf)
	if valid != len(buf) {
		t.Fatalf("clean buffer: valid=%d, want %d", valid, len(buf))
	}
	wantRecords(t, got, payloads...)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, PolicyAlways)
	if len(rec.Journal) != 0 || rec.Snapshot != nil {
		t.Fatalf("fresh dir recovered %+v, want empty", rec)
	}
	appendAll(t, s, "one", "two", "three")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = mustOpen(t, dir, PolicyAlways)
	wantRecords(t, rec.Journal, "one", "two", "three")
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", rec.TruncatedBytes)
	}
}

// A crash mid-append leaves a torn frame at the tail; replay must keep
// every record before it, drop the tail, and physically truncate so
// later appends land on a clean boundary. Every cut offset inside the
// last frame is tried.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, PolicyAlways)
	appendAll(t, s, "keep-1", "keep-2", "casualty")
	s.Close()
	path := filepath.Join(dir, journalName(1))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := frameHeaderBytes + len("casualty")
	tail := len(full) - lastLen
	for cut := tail + 1; cut < len(full); cut++ {
		cutDir := t.TempDir()
		cutPath := filepath.Join(cutDir, journalName(1))
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rec := mustOpen(t, cutDir, PolicyAlways)
		wantRecords(t, rec.Journal, "keep-1", "keep-2")
		if rec.TruncatedBytes != int64(cut-tail) {
			t.Fatalf("cut=%d: truncated %d bytes, want %d", cut, rec.TruncatedBytes, cut-tail)
		}
		// The file must now end at the last valid frame, and a fresh
		// append after recovery must decode cleanly.
		appendAll(t, s2, "after-crash")
		s2.Close()
		_, rec = mustOpen(t, cutDir, PolicyAlways)
		wantRecords(t, rec.Journal, "keep-1", "keep-2", "after-crash")
	}
}

// A flipped bit mid-journal (not just a short tail) must also stop
// replay at the last record whose CRC holds.
func TestCorruptPayloadStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, PolicyAlways)
	appendAll(t, s, "good", "mangled", "unreachable")
	s.Close()
	path := filepath.Join(dir, journalName(1))
	buf, _ := os.ReadFile(path)
	// Flip a bit inside the second record's payload.
	off := (frameHeaderBytes + len("good")) + frameHeaderBytes + 2
	buf[off] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir, PolicyAlways)
	wantRecords(t, rec.Journal, "good")
	if rec.TruncatedBytes == 0 {
		t.Fatal("corruption not reported")
	}
}

func TestSnapshotRotatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, PolicyAlways)
	appendAll(t, s, "pre-1", "pre-2")
	if err := s.Snapshot([][]byte{[]byte("state-a"), []byte("state-b")}); err != nil {
		t.Fatal(err)
	}
	if s.Gen() != 2 {
		t.Fatalf("gen after snapshot = %d, want 2", s.Gen())
	}
	appendAll(t, s, "post-1")
	s.Close()

	_, rec := mustOpen(t, dir, PolicyAlways)
	wantRecords(t, rec.Snapshot, "state-a", "state-b")
	if rec.SnapshotGen != 2 {
		t.Fatalf("snapshot gen = %d, want 2", rec.SnapshotGen)
	}
	// Only the post-snapshot journal replays; pre-1/pre-2 are covered
	// by the snapshot.
	wantRecords(t, rec.Journal, "post-1")
}

// When the newest snapshot is damaged, recovery falls back to the
// previous generation's snapshot plus both journals — nothing is lost
// as long as one older generation survives.
func TestCorruptSnapshotFallsBackAGeneration(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, PolicyAlways)
	appendAll(t, s, "epoch1-a")
	if err := s.Snapshot([][]byte{[]byte("snap-1")}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "epoch2-a")
	if err := s.Snapshot([][]byte{[]byte("snap-2")}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "epoch3-a")
	s.Close()

	// Damage the newest snapshot (gen 3).
	path := filepath.Join(dir, snapshotName(3))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, PolicyAlways)
	if rec.SkippedSnapshots != 1 {
		t.Fatalf("skipped %d snapshots, want 1", rec.SkippedSnapshots)
	}
	wantRecords(t, rec.Snapshot, "snap-1")
	if rec.SnapshotGen != 2 {
		t.Fatalf("fell back to gen %d, want 2", rec.SnapshotGen)
	}
	// Journal replay covers generations 2 and 3 in order.
	wantRecords(t, rec.Journal, "epoch2-a", "epoch3-a")
}

func TestSnapshotPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, PolicyAlways)
	for i := 0; i < 3; i++ {
		appendAll(t, s, fmt.Sprintf("rec-%d", i))
		if err := s.Snapshot([][]byte{[]byte(fmt.Sprintf("snap-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	journals, snapshots, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Current gen is 4; only 3 and 4 may remain.
	for _, g := range journals {
		if g < 3 {
			t.Fatalf("journal gen %d not pruned (have %v)", g, journals)
		}
	}
	for _, g := range snapshots {
		if g < 3 {
			t.Fatalf("snapshot gen %d not pruned (have %v)", g, snapshots)
		}
	}
	_, rec := mustOpen(t, dir, PolicyAlways)
	wantRecords(t, rec.Snapshot, "snap-2")
}

// An interrupted snapshot (crash between temp write and rename) must
// leave the previous generation untouched and the temp file cleaned
// up on the next open.
func TestStrayTempSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, PolicyAlways)
	appendAll(t, s, "only")
	s.Close()
	tmp := filepath.Join(dir, "snapshot-00000002.tmp")
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir, PolicyAlways)
	wantRecords(t, rec.Journal, "only")
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray temp snapshot survived open: %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), PolicyAlways)
	s.Close()
	if err := s.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := s.Snapshot(nil); err != ErrClosed {
		t.Fatalf("snapshot after close: %v, want ErrClosed", err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"always", PolicyAlways, true},
		{"", PolicyAlways, true},
		{"never", PolicyNever, true},
		{"100ms", PolicyEvery(100 * time.Millisecond), true},
		{"2s", PolicyEvery(2 * time.Second), true},
		{"-1s", Policy{}, false},
		{"sometimes", Policy{}, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePolicy(%q) = (%+v, %v), want (%+v, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestIntervalPolicySyncsEventually(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, PolicyEvery(time.Nanosecond))
	// Every append is past the interval, so each one syncs; mostly
	// this exercises the interval branch for coverage and races.
	appendAll(t, s, "a", "b")
	s.Close()
	_, rec := mustOpen(t, dir, PolicyEvery(time.Hour))
	wantRecords(t, rec.Journal, "a", "b")
}

// Gen returns the current journal generation (tests, logs).
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}
