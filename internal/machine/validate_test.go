package machine

import (
	"strings"
	"testing"
)

// TestValidateAcceptsPaperConfigs: every shipped configuration passes.
func TestValidateAcceptsPaperConfigs(t *testing.T) {
	for _, cfg := range []Config{
		Issue1(), Issue1Cache(), Issue4Br1(), Issue8Br1(), Issue8Br2(), Issue8Br1Cache(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestValidateRejectsNonPowerOfTwoBTB(t *testing.T) {
	for _, entries := range []int{0, -4, 3, 1000} {
		cfg := Issue8Br1()
		cfg.BTBEntries = entries
		err := cfg.Validate()
		if err == nil {
			t.Errorf("BTBEntries=%d accepted, want error", entries)
			continue
		}
		if !strings.Contains(err.Error(), "BTBEntries") {
			t.Errorf("BTBEntries=%d: error %q does not name the field", entries, err)
		}
	}
}

func TestValidateRejectsBadCacheGeometry(t *testing.T) {
	blocky := Issue8Br1Cache()
	blocky.ICache.BlockSize = 48 // not a power of two
	if err := blocky.Validate(); err == nil || !strings.Contains(err.Error(), "ICache.BlockSize") {
		t.Errorf("BlockSize=48: error = %v, want ICache.BlockSize complaint", err)
	}

	liney := Issue8Br1Cache()
	liney.DCache.SizeBytes = 96 << 10 // 1536 lines: not a power of two
	if err := liney.Validate(); err == nil || !strings.Contains(err.Error(), "lines") {
		t.Errorf("96K/64B: error = %v, want line-count complaint", err)
	}

	ragged := Issue8Br1Cache()
	ragged.ICache.SizeBytes = (64 << 10) + 13 // not block-aligned
	if err := ragged.Validate(); err == nil {
		t.Error("unaligned cache size accepted, want error")
	}
}

// TestValidateBandwidthAndPenalties is the regression test for the
// config-validation hang: IssueWidth=0 (or BranchSlots=0) used to pass
// Validate and then spin the simulator's slot-allocation loop forever,
// because slots reset to zero on every bumped cycle and `slots < width`
// never became true.  Validate now rejects non-positive bandwidth,
// negative penalties, and inconsistent OoO window sizes up front.
func TestValidateBandwidthAndPenalties(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantSub string // "" means the config must validate
	}{
		{"zero issue width", func(c *Config) { c.IssueWidth = 0 }, "IssueWidth"},
		{"negative issue width", func(c *Config) { c.IssueWidth = -8 }, "IssueWidth"},
		{"zero branch slots", func(c *Config) { c.BranchSlots = 0 }, "BranchSlots"},
		{"negative branch slots", func(c *Config) { c.BranchSlots = -1 }, "BranchSlots"},
		{"negative mispredict penalty", func(c *Config) { c.MispredictPenalty = -2 }, "MispredictPenalty"},
		{"negative taken bubble", func(c *Config) { c.TakenBranchBubble = -1 }, "TakenBranchBubble"},
		{"negative predicate distance", func(c *Config) { c.PredicateDistance = -3 }, "PredicateDistance"},
		{"negative miss cycles", func(c *Config) { c.PerfectCache = false; c.DCache.MissCycles = -12 }, "MissCycles"},
		{"ooo without window", func(c *Config) { c.OoO = true }, "WindowSize"},
		{"ooo negative window", func(c *Config) { c.OoO = true; c.WindowSize = -32 }, "WindowSize"},
		{"window without ooo", func(c *Config) { c.WindowSize = 16 }, "WindowSize"},
		{"ooo window of one", func(c *Config) { c.OoO = true; c.WindowSize = 1 }, ""},
		{"ooo window of thirty-two", func(c *Config) { c.OoO = true; c.WindowSize = 32 }, ""},
		{"ooo largest window", func(c *Config) { c.OoO = true; c.WindowSize = MaxWindowSize }, ""},
		{"ooo window past the bound", func(c *Config) { c.OoO = true; c.WindowSize = 4097 }, "WindowSize"},
	}
	for _, tt := range tests {
		cfg := Issue8Br1()
		tt.mutate(&cfg)
		err := cfg.Validate()
		if tt.wantSub == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tt.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want error naming %s", tt.name, tt.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("%s: error %q does not name %s", tt.name, err, tt.wantSub)
		}
	}
}

// TestValidateSkipsCachesWhenPerfect: cache geometry is irrelevant (and
// unchecked) when the cache models are disabled.
func TestValidateSkipsCachesWhenPerfect(t *testing.T) {
	cfg := Issue8Br1() // PerfectCache
	cfg.ICache.BlockSize = 3
	cfg.DCache.SizeBytes = 7
	if err := cfg.Validate(); err != nil {
		t.Errorf("perfect-cache config rejected for cache geometry: %v", err)
	}
}
