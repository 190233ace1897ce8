package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"predication/internal/asm"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/machine"
)

// Artifact (de)serialization for the disk-backed artifact store
// (internal/store): a CellArtifact round-trips through the textual
// assembly form, the same representation the asm package guarantees
// emulates identically to the in-memory program (asm_test's round-trip
// invariant, re-pinned for measurement by TestArtifactCodecParity).
//
// The encoding is a one-line JSON header — the artifact's coordinates —
// followed by asm.Format of the *compiled* (scheduled, predicated)
// program.  Decoding re-parses the listing, re-runs the compiler's final
// legality check for the header's model (core.VerifyEmitted) and then
// emu.Decode, so a decoded artifact measures through exactly the same
// pre-decoded fast path as a freshly compiled one.

// artifactHeader is the self-describing first line of an encoded
// artifact.
type artifactHeader struct {
	Format   int    `json:"format"` // encoding version, currently 1
	Kernel   string `json:"kernel"`
	Model    int    `json:"model"`
	Target   string `json:"target"` // scheduling-target machine name
	MaxSteps int64  `json:"max_steps,omitempty"`
}

const artifactFormat = 1

// EncodeArtifact serializes the artifact for the on-disk store.
func EncodeArtifact(a *CellArtifact) ([]byte, error) {
	if a == nil || a.Compiled == nil || a.Compiled.Prog == nil {
		return nil, fmt.Errorf("experiments: cannot encode an empty artifact")
	}
	hdr, err := json.Marshal(artifactHeader{
		Format:   artifactFormat,
		Kernel:   a.Kernel,
		Model:    int(a.Model),
		Target:   a.Target.Name,
		MaxSteps: a.MaxSteps,
	})
	if err != nil {
		return nil, err
	}
	return asm.AppendFormat(append(hdr, '\n'), a.Compiled.Prog), nil
}

// DecodeArtifact reconstructs a measurable artifact from EncodeArtifact
// bytes.  Any defect — a foreign format version, an unknown model or
// target, a listing that no longer parses or verifies — is an error the
// caller treats as a cache miss (the store's record digest already
// guarantees the bytes are the ones written, so a decode failure means a
// format skew, not corruption).
func DecodeArtifact(data []byte) (*CellArtifact, error) {
	line, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("experiments: artifact record missing header line")
	}
	var hdr artifactHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("experiments: artifact header: %w", err)
	}
	if hdr.Format != artifactFormat {
		return nil, fmt.Errorf("experiments: artifact format %d, want %d", hdr.Format, artifactFormat)
	}
	model := core.Model(hdr.Model)
	switch model {
	case core.Superblock, core.CondMove, core.FullPred, core.GuardInstr:
	default:
		return nil, fmt.Errorf("experiments: artifact names unknown model %d", hdr.Model)
	}
	target, err := machine.ByName(hdr.Target)
	if err != nil {
		return nil, fmt.Errorf("experiments: artifact target: %w", err)
	}
	prog, err := asm.Parse(string(rest))
	if err != nil {
		return nil, fmt.Errorf("experiments: artifact listing: %w", err)
	}
	// The same final legality check every compiled listing passed: a
	// listing that parses but is illegal for its header's model (or a
	// header relabelled over a legal listing) must not be measured.
	if err := core.VerifyEmitted(prog, model); err != nil {
		return nil, fmt.Errorf("experiments: artifact listing: %w", err)
	}
	// The parser leaves code addresses unassigned; the simulator's
	// front end (icache indexing, predictor tables) needs the same
	// layout the compiler produced.  AssignAddresses is deterministic
	// over live blocks in ID order — exactly what the listing preserves
	// — so the decoded program's addresses match the original's.
	prog.AssignAddresses()
	code, err := emu.Decode(prog)
	if err != nil {
		return nil, fmt.Errorf("experiments: artifact decode: %w", err)
	}
	return &CellArtifact{
		Kernel:   hdr.Kernel,
		Model:    model,
		Target:   target,
		Compiled: &core.Compiled{Prog: prog, Model: model},
		Code:     code,
		MaxSteps: hdr.MaxSteps,
	}, nil
}
