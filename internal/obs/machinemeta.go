package obs

import "predication/internal/machine"

// CacheMeta describes one cache's geometry in JSON reports.
type CacheMeta struct {
	SizeBytes  int `json:"size_bytes"`
	BlockBytes int `json:"block_bytes"`
	Lines      int `json:"lines"`
	MissCycles int `json:"miss_cycles"`
}

// MachineMeta is the self-describing machine-configuration record embedded
// in JSON outputs (predsim -stats-json, the serving daemon's cell
// responses), so committed artifacts carry the processor parameters they
// were measured on.
type MachineMeta struct {
	Name                 string     `json:"name"`
	IssueWidth           int        `json:"issue_width"`
	BranchSlots          int        `json:"branch_slots"`
	Predictor            string     `json:"predictor"`
	BTBEntries           int        `json:"btb_entries"`
	MispredictPenalty    int        `json:"mispredict_penalty"`
	TakenBranchBubble    int        `json:"taken_branch_bubble"`
	PredicateDistance    int        `json:"predicate_distance"`
	WritebackSuppression bool       `json:"writeback_suppression"`
	PerfectCache         bool       `json:"perfect_cache"`
	OoO                  bool       `json:"ooo,omitempty"`
	WindowSize           int        `json:"window_size,omitempty"`
	ICache               *CacheMeta `json:"icache,omitempty"`
	DCache               *CacheMeta `json:"dcache,omitempty"`
}

// MachineMetaOf extracts the metadata record of a configuration.
func MachineMetaOf(cfg machine.Config) MachineMeta {
	m := MachineMeta{
		Name:                 cfg.Name,
		IssueWidth:           cfg.IssueWidth,
		BranchSlots:          cfg.BranchSlots,
		Predictor:            "btb",
		BTBEntries:           cfg.BTBEntries,
		MispredictPenalty:    cfg.MispredictPenalty,
		TakenBranchBubble:    cfg.TakenBranchBubble,
		PredicateDistance:    cfg.PredDist(),
		WritebackSuppression: cfg.WritebackSuppression,
		PerfectCache:         cfg.PerfectCache,
		OoO:                  cfg.OoO,
		WindowSize:           cfg.WindowSize,
	}
	if cfg.Gshare {
		m.Predictor = "gshare"
	}
	if !cfg.PerfectCache {
		m.ICache = cacheMetaOf(cfg.ICache)
		m.DCache = cacheMetaOf(cfg.DCache)
	}
	return m
}

func cacheMetaOf(c machine.CacheConfig) *CacheMeta {
	return &CacheMeta{
		SizeBytes:  c.SizeBytes,
		BlockBytes: c.BlockSize,
		Lines:      c.Lines(),
		MissCycles: c.MissCycles,
	}
}
