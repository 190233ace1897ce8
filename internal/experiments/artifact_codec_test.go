package experiments

import (
	"strings"
	"testing"

	"predication/internal/core"
	"predication/internal/machine"
)

// TestArtifactCodecParity: a decoded artifact measures bit-identically
// to the one it was encoded from — same Stats, checksum, and step count
// on every sibling simulator configuration.  This is the invariant that
// lets the serving daemon treat a disk-loaded artifact as
// interchangeable with a freshly compiled one.
func TestArtifactCodecParity(t *testing.T) {
	models := []core.Model{core.Superblock, core.CondMove, core.FullPred, core.GuardInstr}
	for _, kernel := range []string{"wc", "grep"} {
		for _, model := range models {
			art, err := CompileCell(kernel, model, machine.Issue8Br1())
			if err != nil {
				t.Fatalf("%s %v: %v", kernel, model, err)
			}
			data, err := EncodeArtifact(art)
			if err != nil {
				t.Fatalf("%s %v: encode: %v", kernel, model, err)
			}
			got, err := DecodeArtifact(data)
			if err != nil {
				t.Fatalf("%s %v: decode: %v", kernel, model, err)
			}
			if got.Kernel != art.Kernel || got.Model != art.Model ||
				got.Target.Name != art.Target.Name || got.MaxSteps != art.MaxSteps {
				t.Fatalf("%s %v: coordinates drifted: %+v", kernel, model, got)
			}
			cfgs := SimsFor(art.Target)
			want, err := art.MeasureAll(cfgs, true)
			if err != nil {
				t.Fatalf("%s %v: measure original: %v", kernel, model, err)
			}
			have, err := got.MeasureAll(cfgs, true)
			if err != nil {
				t.Fatalf("%s %v: measure decoded: %v", kernel, model, err)
			}
			for i, cfg := range cfgs {
				if *have[i] != *want[i] && (have[i].Stats != want[i].Stats ||
					have[i].Checksum != want[i].Checksum || have[i].Steps != want[i].Steps) {
					t.Errorf("%s %v @ %s: decoded artifact diverges:\n got %+v\nwant %+v",
						kernel, model, cfg.Name, have[i], want[i])
				}
			}
		}
	}
}

// TestArtifactCodecIdempotent: encode(decode(encode(a))) is byte-stable,
// so a record written by one replica re-encodes identically on another.
func TestArtifactCodecIdempotent(t *testing.T) {
	art, err := CompileCell("wc", core.FullPred, machine.Issue8Br1())
	if err != nil {
		t.Fatal(err)
	}
	first, err := EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeArtifact(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeArtifact(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("artifact encoding is not a fixpoint through decode")
	}
}

// TestDecodeArtifactRejects: table-driven hostile records — decode
// failures are errors (cache misses), never panics or half-built
// artifacts.
func TestDecodeArtifactRejects(t *testing.T) {
	art, err := CompileCell("wc", core.FullPred, machine.Issue8Br1())
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	header, listing, _ := strings.Cut(string(good), "\n")
	cases := map[string]string{
		"empty":           "",
		"no header line":  "not json and no newline",
		"non-json header": "not-json\n" + listing,
		"future format":   strings.Replace(header, "\"format\":1", "\"format\":99", 1) + "\n" + listing,
		"unknown model":   strings.Replace(header, "\"model\":2", "\"model\":42", 1) + "\n" + listing,
		// A legal full-predication listing relabelled as superblock code:
		// it parses, but its predicate defines and guards are illegal
		// under the baseline rules.
		"relabelled model": strings.Replace(header, "\"model\":2", "\"model\":0", 1) + "\n" + listing,
		"unknown target":   strings.Replace(header, "issue8-br1", "issue999", 1) + "\n" + listing,
		"garbage listing":  header + "\nthis is not assembly\n",
		"empty listing":    header + "\n",
	}
	for name, data := range cases {
		if data == string(good) {
			t.Fatalf("%s: corruption did not change the record", name)
		}
		if a, err := DecodeArtifact([]byte(data)); err == nil {
			t.Errorf("%s: decoded to %+v, want error", name, a)
		}
	}
}

// FuzzDecodeArtifact drives arbitrary bytes through the artifact decoder,
// the path every disk-store record takes back into the daemon.  Decoding
// must never panic, and an artifact it accepts — a listing that parsed
// and passed its header model's legality check — must measure: under a
// small step cap, with cycle accounting on, the only failure allowed is
// the emulation's own (a trap or the cap).  Seeds are encoded artifacts
// of the three kernels with the shortest listings, under all four
// models.
func FuzzDecodeArtifact(f *testing.F) {
	for _, kernel := range []string{"qsort", "052.alvinn", "wc"} {
		for _, model := range []core.Model{core.Superblock, core.CondMove, core.FullPred, core.GuardInstr} {
			art, err := CompileCell(kernel, model, machine.Issue8Br1())
			if err != nil {
				f.Fatal(err)
			}
			data, err := EncodeArtifact(art)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		// A declared memory of up to the parser's 2^26 words is legal, but
		// allocating it on every exec would spend the budget in the
		// allocator: past 2^20 words only the decode is exercised.
		if art.Compiled.Prog.MemWords > 1<<20 {
			return
		}
		const maxSteps = 1 << 12
		if art.MaxSteps <= 0 || art.MaxSteps > maxSteps {
			art.MaxSteps = maxSteps
		}
		if _, err := art.MeasureAll(SimsFor(art.Target), true); err != nil && !strings.HasPrefix(err.Error(), "emulate: ") {
			t.Fatalf("accepted artifact does not measure: %v", err)
		}
	})
}
