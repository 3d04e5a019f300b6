package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// quick is the small scenario the CLI tests run: tiny preload, short run
// phase.
func quick(extra ...string) []string {
	return append(extra, "-records", "24", "-ops", "40")
}

func TestSaveRestoreDiffRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.snap")
	b := filepath.Join(dir, "b.snap")
	if code := run(quick("save", "-o", a)); code != 0 {
		t.Fatalf("save exited %d", code)
	}
	if code := run(quick("restore", a, "-o", b)); code != 0 {
		t.Fatalf("restore exited %d", code)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("restore -o re-serialization is not byte-identical to the input")
	}
	if code := run([]string{"diff", a, b}); code != 0 {
		t.Fatalf("diff of identical snapshots exited %d", code)
	}
	if code := run([]string{"info", a}); code != 0 {
		t.Fatalf("info exited %d", code)
	}
	if code := run(quick("restore", a, "-run")); code != 0 {
		t.Fatalf("restore -run exited %d", code)
	}
}

// warmSnapSHA256 is the SHA-256 of `rcoe-snap save -records 24 -ops 40`
// (1,464,307 bytes, 18 sections). It pins the checkpoint format across
// commits: the round-trip tests only compare save against restore→save
// within one build. A deliberate format change updates this digest and
// says why.
const warmSnapSHA256 = "2e61cf63efff46fcbeebd664a0685485b76ef3c15eab238bb42833799dfce9e4"

func TestSaveFormatGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.snp")
	if code := run(quick("save", "-o", path)); code != 0 {
		t.Fatalf("save exited %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != warmSnapSHA256 {
		t.Fatalf("checkpoint format changed: %d bytes, sha256 %s, want %s", len(data), got, warmSnapSHA256)
	}
}

func TestRestoreRejectsMismatchedScenario(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.snap")
	if code := run(quick("save", "-o", a)); code != 0 {
		t.Fatalf("save exited %d", code)
	}
	if code := run(quick("restore", a, "-replicas", "3")); code != 1 {
		t.Fatalf("mismatched replica count: restore exited %d, want 1", code)
	}
	if code := run(quick("restore", a, "-seed", "9")); code != 1 {
		t.Fatalf("mismatched seed: restore exited %d, want 1", code)
	}
}

func TestDiffDetectsDifference(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.snap")
	b := filepath.Join(dir, "b.snap")
	if code := run(quick("save", "-o", a, "-seed", "1")); code != 0 {
		t.Fatalf("save a exited %d", code)
	}
	if code := run(quick("save", "-o", b, "-seed", "3")); code != 0 {
		t.Fatalf("save b exited %d", code)
	}
	if code := run([]string{"diff", a, b}); code != 1 {
		t.Fatalf("diff of different snapshots exited %d, want 1", code)
	}
}
