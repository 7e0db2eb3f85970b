package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/segstore"
	"repro/internal/ssb"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/segment_digest_sf001.json from the segment files as this build writes them")

const digestPath = "testdata/segment_digest_sf001.json"

// segmentDigests are the SHA-256 values of the two files TestSegmentFileDigest
// writes, hex encoded, and the appended file's size in bytes (so a change in
// what an append writes shows in the golden's diff as a number).
type segmentDigests struct {
	Saved         string `json:"saved"`
	Appended      string `json:"appended"`
	AppendedBytes int64  `json:"appended_bytes"`
}

// TestSegmentFileDigest pins the physical layout byte for byte: the file
// SaveSegments writes for BuildDB(Generate(0.01)), and the same file after
// a seeded 70 000-row Insert flushed through the write path. The iostats
// goldens are blind to column order (they sum per query), so this is what
// pins the fact and dimension column orders, their sort kinds, and the
// column order the write path appends in. Regenerate with `go test
// ./internal/exec -run TestSegmentFileDigest -update` only when a change
// means to alter the file format.
func TestSegmentFileDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digest.seg")
	data := ssb.Generate(0.01)
	if err := SaveSegments(path, data.SF, BuildDB(data, true)); err != nil {
		t.Fatal(err)
	}
	var got segmentDigests
	got.Saved = fileSHA256(t, path)

	store, err := segstore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenSegmentDB(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableDelta(0); err != nil {
		t.Fatal(err)
	}
	shape, err := db.BatchShape()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ssb.RandBatch(3, 70000, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushDelta(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	got.Appended = fileSHA256(t, path)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	got.AppendedBytes = fi.Size()

	if *updateDigest {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("digest file missing (regenerate with `go test ./internal/exec -run TestSegmentFileDigest -update`): %v", err)
	}
	var want segmentDigests
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("digest file corrupt: %v", err)
	}
	if got.Saved != want.Saved {
		t.Errorf("saved segment file SHA-256 %s, golden %s: the physical layout changed", got.Saved, want.Saved)
	}
	if got.Appended != want.Appended {
		t.Errorf("appended segment file SHA-256 %s, golden %s: the write path's layout changed", got.Appended, want.Appended)
	}
	if got.AppendedBytes != want.AppendedBytes {
		t.Errorf("appended segment file is %d bytes, golden %d", got.AppendedBytes, want.AppendedBytes)
	}
}

// fileSHA256 returns the hex SHA-256 of the file at path.
func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestFactColOrderIsBuildLayout checks factColOrder's claim: the order
// Insert batches and WAL insert records use is BuildDB's fact layout, and
// that of a store reopened from its segment file.
func TestFactColOrderIsBuildLayout(t *testing.T) {
	dbc := BuildDB(ssb.Generate(0.002), true)
	segDB, _ := segBackedDB(t, dbc, 0.002, 0)
	for _, db := range []*DB{dbc, segDB} {
		if got := db.Fact.ColumnNames(); !slices.Equal(got, factColOrder) {
			t.Errorf("fact columns %v, factColOrder %v", got, factColOrder)
		}
	}
}
