package core

import (
	"flywheel/internal/mem"
	"flywheel/internal/pipe"
	"flywheel/internal/power"
)

// Stats reports one Flywheel run.
type Stats struct {
	// Progress and time.
	TimePS         int64
	BuildTimePS    int64
	ReplayTimePS   int64
	FECycles       uint64 // active (ungated) front-end cycles
	FEGatedCycles  uint64
	BECyclesBuild  uint64
	BECyclesReplay uint64
	Retired        uint64

	// Front-end activity (trace-creation mode).
	FetchGroups           uint64
	Fetched               uint64
	Dispatched            uint64
	Renamed               uint64
	FetchStallQueue       uint64
	DispatchStallResource uint64
	RenameStalls          uint64

	// Issue activity.
	IssuedBuild  uint64
	IssuedReplay uint64
	ReplayUnits  uint64
	UpdateOps    uint64
	RegReads     uint64
	RegWrites    uint64

	// Control flow and trace behaviour.
	PredLookups         uint64
	PredUpdates         uint64
	Mispredicts         uint64 // front-end mispredicts (trace-creation)
	Divergences         uint64 // trace-path mispredicts (trace-execution)
	TraceChanges        uint64
	BrokenReplays       uint64
	ModeSwitches        uint64
	Checkpoints         uint64
	SRTSwaps            uint64
	Redistributions     uint64
	ReplayFillStalls    uint64
	ReplayStallResource uint64
	ReplayStallData     uint64

	// Derived.
	IPC            float64
	ECResidency    float64 // fraction of time on the alternative execution path
	BranchAccuracy float64
	AvgIWOccupancy float64

	// Structures.
	IWInserted uint64
	IWSelected uint64
	Forwards   uint64
	FUIssued   [pipe.NumFUGroups]uint64
	EC         ECStats
	L1I        mem.CacheStats
	L1D        mem.CacheStats
	L2         mem.CacheStats

	// Frontend microarchitecture observables.
	CondBranches uint64
	Prefetch     mem.PrefetchStats
	Demand       mem.DemandStats
}

// Issued is the total number of issued instructions across both modes.
func (s Stats) Issued() uint64 { return s.IssuedBuild + s.IssuedReplay }

// Cycles is the total number of back-end cycles across both modes.
func (s Stats) Cycles() uint64 { return s.BECyclesBuild + s.BECyclesReplay }

// finalizeStats fills in the derived metrics and the counters kept by the
// pipeline structures.
func (c *Core) finalizeStats() {
	s := &c.stats
	// Close the open mode interval; moving its start to now makes a
	// repeat call add nothing.
	now := c.sys.Now()
	if c.mode == ModeReplay {
		s.ReplayTimePS += now - c.lastModeSwitch
	} else {
		s.BuildTimePS += now - c.lastModeSwitch
	}
	c.lastModeSwitch = now
	s.TimePS = now
	s.FECycles = c.fe.Cycles
	s.FEGatedCycles = c.fe.GatedCycles
	s.Fetched = c.fetcher.Fetched
	s.Mispredicts = c.fetcher.Mispredicts
	s.PredLookups = c.pred.Stats.Lookups
	s.PredUpdates = c.pred.Stats.Updates
	if cyc := s.Cycles(); cyc > 0 {
		s.IPC = float64(s.Retired) / float64(cyc)
	}
	if s.TimePS > 0 {
		s.ECResidency = float64(s.ReplayTimePS) / float64(s.TimePS)
	}
	s.BranchAccuracy = c.pred.Stats.Accuracy()
	s.AvgIWOccupancy = c.iw.AvgOccupancy()
	s.IWInserted = c.iw.Inserted
	s.IWSelected = c.iw.Selected
	s.Forwards = c.lsq.Forwards
	s.FUIssued = c.fu.Issued
	s.Checkpoints = c.ren.Checkpoints
	s.SRTSwaps = c.ren.SRTSwaps
	s.EC = c.ec.Stats
	s.L1I = c.hier.L1I.Stats
	s.L1D = c.hier.L1D.Stats
	s.L2 = c.hier.L2.Stats
	s.CondBranches = c.pred.Stats.CondBranches
	s.Prefetch = c.hier.PrefetchStats()
	s.Demand = c.hier.DemandStats()
}

// Stats returns the current statistics (final after Run returns).
func (c *Core) Stats() Stats { return c.stats }

// Warmer exposes functional warming over this core's caches and predictor;
// call before Run, then Warmer().Finish() to clear the warm-up statistics.
func (c *Core) Warmer() *pipe.Warmer { return pipe.NewWarmer(c.pred, c.hier) }

// Activity converts the run into the power model's event record.
func (s Stats) Activity() power.Activity {
	return power.Activity{
		TimePS:      s.TimePS,
		FECycles:    s.FECycles,
		BECycles:    s.Cycles(),
		FetchGroups: s.FetchGroups,
		Fetched:     s.Fetched,
		Renamed:     s.Renamed,
		BPLookups:   s.PredLookups,
		BPUpdates:   s.PredUpdates,
		IWInserts:   s.IWInserted,
		IWSelects:   s.IWSelected,
		RegReads:    s.RegReads,
		RegWrites:   s.RegWrites,
		FUOps:       s.FUIssued,
		ROBWrites:   s.Dispatched + s.IssuedReplay,
		Retires:     s.Retired,
		LSQOps:      s.L1D.Accesses() + s.Forwards,
		L1I:         s.L1I,
		L1D:         s.L1D,
		L2:          s.L2,

		ECTagLookups:  s.EC.TagLookups,
		ECBlockReads:  s.EC.BlockReads,
		ECBlockWrites: s.EC.BlockWrites,
		UpdateOps:     s.UpdateOps,
		Checkpoints:   s.Checkpoints + s.SRTSwaps,
	}
}
