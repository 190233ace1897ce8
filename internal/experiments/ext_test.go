package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateExt = flag.Bool("update", false, "rewrite testdata/extensions_golden.txt from the current code")

const extGoldenPath = "testdata/extensions_golden.txt"

// TestExtensions holds the seven extension tables (figures -ext) to a
// committed golden rendering: a change to how the sweeps compile or
// measure must leave every number unchanged.
func TestExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second evaluation")
	}
	tables, err := Extensions()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 7 {
		t.Fatalf("%d extension tables", len(tables))
	}
	var sb strings.Builder
	for _, tab := range tables {
		sb.WriteString(tab.String())
		sb.WriteByte('\n')
	}
	got := sb.String()
	if *updateExt {
		if err := os.WriteFile(extGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(extGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Errorf("extension tables differ from %s\ngot:\n%s\nwant:\n%s", extGoldenPath, got, want)
	}
}
