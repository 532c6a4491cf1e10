package pipe

import (
	"reflect"
	"strings"
	"testing"

	"flywheel/internal/asm"
	"flywheel/internal/branch"
	"flywheel/internal/emu"
	"flywheel/internal/isa"
	"flywheel/internal/mem"
)

// warmProgram exercises every event kind a WarmLog encodes: loads and
// stores, taken and fall-through branches, calls and returns (JAL/JALR), an
// indirect jump, and a straight-line block longer than a header's gap field.
var warmProgram = `
        .data
buf:    .space 4096
        .text
        .global main
main:   la   r1, buf
        li   r2, 200
loop:   ld   r3, 0(r1)
        sd   r3, 8(r1)
        addi r1, r1, 16
        call leaf
        addi r2, r2, -1
        andi r4, r2, 3
        beqz r4, skip
` + strings.Repeat("        nop\n", 40) + `
skip:   bnez r2, loop
        la   r5, tail
        jr   r5
        nop
tail:   halt
leaf:   addi r6, r6, 1
        ret
`

// warmTraces runs warmProgram to its halt, twice over (the second pass
// enters at main again, a discontinuous PC), then appends control records
// whose next PC is not what the instruction implies.
func warmTraces(t *testing.T) []emu.Trace {
	t.Helper()
	prog := asm.MustAssemble("warm.s", warmProgram)
	var trs []emu.Trace
	for range 2 {
		m := emu.New(prog)
		for !m.Halted {
			tr, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
	}
	var br emu.Trace
	for _, tr := range trs {
		if tr.Inst.Class() == isa.ClassBranch && tr.Taken {
			br = tr
			break
		}
	}
	odd := br
	odd.Taken = false // not taken, yet leaves the fall-through path
	trs = append(trs, odd)
	odd = br
	odd.NextPC = asm.CodeBase // taken, to somewhere other than its offset
	return append(trs, odd, br)
}

// TestWarmLogReplayMatchesObserve checks that replaying a log builds
// exactly the cache and predictor state that observing the same records
// live does, for L1I lines smaller than, equal to and larger than the
// instruction stream's runs, with every predictor and prefetcher.
func TestWarmLogReplayMatchesObserve(t *testing.T) {
	trs := warmTraces(t)
	var log WarmLog
	for _, tr := range trs {
		log.Observe(tr)
	}
	if log.Overflowed() || log.Len() != len(trs) {
		t.Fatalf("log: overflowed %v, %d records, want %d", log.Overflowed(), log.Len(), len(trs))
	}
	kinds, escaped := map[int]int{}, 0
	for r := log.reader(); ; {
		kind, gap, _, ok := r.next()
		if !ok {
			break
		}
		kinds[kind]++
		if gap >= gapEscape {
			escaped++
		}
	}
	if len(kinds) != evSetPC+1 || escaped == 0 {
		t.Fatalf("stream exercises event kinds %v and %d escaped gaps; want all %d kinds and an escape", kinds, escaped, evSetPC+1)
	}
	for _, line := range []int{4, 16, 32, 64, 128} {
		for _, pf := range mem.Prefetchers() {
			for _, dir := range branch.Directions() {
				hc := mem.DefaultHierarchyConfig(1000)
				hc.L1I.LineBytes = line
				hc.Prefetch = mem.DefaultPrefetchConfig(pf)
				bc := branch.Config{Direction: dir}

				live := NewWarmer(branch.New(bc), mem.NewHierarchy(hc))
				for _, tr := range trs {
					live.Observe(tr)
				}
				live.Finish()

				hier, pred := mem.NewHierarchy(hc), branch.New(bc)
				log.ReplayHierarchy(hier)
				log.ReplayPredictor(pred)
				if !reflect.DeepEqual(live.hier, hier) {
					t.Errorf("line %d B, prefetcher %s: replayed hierarchy differs from live warming", line, pf)
				}
				if !reflect.DeepEqual(live.pred, pred) {
					t.Errorf("line %d B, predictor %s: replayed predictor differs from live warming", line, dir)
				}
			}
		}
	}
}

// TestWarmLogRejectsNonCodePC checks that a record the log cannot encode
// marks it unusable instead of replaying wrong state.
func TestWarmLogRejectsNonCodePC(t *testing.T) {
	var log WarmLog
	log.Observe(emu.Trace{PC: 8, Inst: isa.Instruction{Op: isa.LD}, NextPC: 12})
	if !log.Overflowed() {
		t.Fatal("a memory instruction below the code section was accepted")
	}
}
