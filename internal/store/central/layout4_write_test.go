//go:build layout4fixture

package central

import (
	"os"
	"path/filepath"
	"testing"

	"orchestra/internal/store/storetest"
)

// TestWriteLayout4Fixture writes a layout fixture: the directory
// writeLayoutFixture leaves, copied to $LAYOUT4_FIXTURE, and the
// transcript a store reads out of it, to $LAYOUT4_FIXTURE.transcript. It
// is built only with -tags layout4fixture and run in a checkout of commit
// e631cd3, the last release that writes layout 4; CHANGES.md gives the
// commands.
func TestWriteLayout4Fixture(t *testing.T) {
	out := os.Getenv("LAYOUT4_FIXTURE")
	if out == "" {
		t.Fatal("set LAYOUT4_FIXTURE to the fixture directory to write")
	}
	dir := t.TempDir()
	writeLayoutFixture(t, dir)
	if err := os.CopyFS(out, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(storetest.Schema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.WriteFile(filepath.Clean(out)+".transcript", []byte(storeTranscript(t, s)), 0o644); err != nil {
		t.Fatal(err)
	}
}
