package sim

import (
	"strings"
	"testing"

	"predication/internal/builder"
	"predication/internal/machine"
)

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, want one containing %q", want)
			return
		}
		if msg := panicMessage(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want substring %q", msg, want)
		}
	}()
	fn()
}

func panicMessage(r any) string {
	if err, ok := r.(error); ok {
		return err.Error()
	}
	return ""
}

// TestNewRejectsInvalidGeometry: both constructors surface
// machine.Config.Validate failures as panics (the cmd wrappers convert
// panics to one-line errors), instead of silently aliasing masked indexes.
func TestNewRejectsInvalidGeometry(t *testing.T) {
	p := builder.New(16)
	f := p.Func("main")
	f.Entry().Halt()
	prog := p.Program()
	prog.AssignAddresses()

	bad := machine.Issue8Br1()
	bad.BTBEntries = 1000
	mustPanic(t, "BTBEntries", func() { NewTiming(prog, bad) })
	mustPanic(t, "BTBEntries", func() { NewGang(prog, []machine.Config{machine.Issue1(), bad}) })

	badCache := machine.Issue8Br1Cache()
	badCache.ICache.BlockSize = 48
	mustPanic(t, "BlockSize", func() { NewTiming(prog, badCache) })
	mustPanic(t, "BlockSize", func() { NewGang(prog, []machine.Config{machine.Issue1(), badCache}) })
}
