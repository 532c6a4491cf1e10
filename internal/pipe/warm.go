package pipe

import (
	"encoding/binary"

	"flywheel/internal/asm"
	"flywheel/internal/branch"
	"flywheel/internal/emu"
	"flywheel/internal/isa"
	"flywheel/internal/mem"
)

// Warmer performs functional warming: during the fast-forward over a
// workload's initialization (the paper skips 500M instructions before
// measuring), the caches and the branch predictor observe the architectural
// access stream so the measured window starts from realistic state instead
// of compulsory-miss cold start.
type Warmer struct {
	pred  *branch.Predictor
	hier  *mem.Hierarchy
	fetch lineFetcher
}

// NewWarmer builds a warmer over a core's predictor and memory hierarchy.
func NewWarmer(pred *branch.Predictor, hier *mem.Hierarchy) *Warmer {
	return &Warmer{pred: pred, hier: hier, fetch: newLineFetcher(hier)}
}

// SeedFrom copies already warmed predictor and cache state into this
// warmer's structures: the O(state-size) equivalent of replaying the whole
// warm observation stream. Source and destination configurations must
// match.
func (w *Warmer) SeedFrom(pred *branch.Predictor, hier *mem.Hierarchy) {
	w.pred.CopyStateFrom(pred)
	w.hier.CopyStateFrom(hier)
}

// Observe feeds one architectural record into the caches and predictor.
func (w *Warmer) Observe(tr emu.Trace) {
	w.fetch.fetch(tr.PC)
	if tr.Inst.IsMem() {
		w.hier.Access(dataAccess(tr.Inst), tr.PC, tr.Addr, 1)
	}
	if tr.Inst.IsControl() {
		w.pred.Predict(tr.PC, tr.Inst)
		w.pred.Update(tr.PC, tr.Inst, tr.Taken, tr.NextPC)
	}
}

// Finish clears the statistics accumulated while warming so measurements
// start clean (cache and predictor *state* is kept — that is the point).
func (w *Warmer) Finish() {
	w.hier.ResetStats()
	w.pred.Stats = branch.Stats{}
}

// MaxWarmLogRecords bounds how many instructions a WarmLog records, and
// with it how much memory one workload's log can pin for the life of the
// process. Each recorded instruction adds at most two events (a PC jump,
// only where the stream is discontinuous, and its own) of at most
// maxEventBytes (21 B) each, so a log holds at most 42 MiB of events at
// the cap; chunks waste under 21 B per 16 KiB. Its static instruction
// table adds 8 B per code-section slot up to the highest memory or
// control instruction recorded, at most 8 MiB. Initialization loops
// typically cost under 1 B per instruction. A workload whose
// initialization exceeds the cap cannot be warm-cached and callers fall
// back to functional re-execution (see Overflowed).
const MaxWarmLogRecords = 1 << 20

// WarmLog records the architectural observations of a workload's
// initialization phase once, so later runs can warm their caches and
// predictor by replaying the log instead of re-executing initialization on
// a functional machine.
//
// The log keeps only what Warmer.Observe acts on. Each memory or control
// instruction is one event: a header byte holding the event kind and the
// number of plain instructions (neither memory nor control) executed
// sequentially since the previous event, then a varint payload — the
// zigzag delta of a memory address from the previous one, or a control
// transfer's target when it cannot be derived from the instruction.
// Plain instructions are kept only as those counts: a run of them is a
// run of sequential PCs, so the replaying warmer derives which of them
// enter a new fetch line from its own L1I line size, and replay is exact
// for any line size. The static memory and control instructions live once
// in a table indexed by PC. Events are appended to fixed-size chunks, so
// recording never copies what it has written.
//
// Replay is in recording order, so it reproduces exactly the warm state
// the live observation sequence would have built. The hierarchy and the
// predictor replay separately (ReplayHierarchy, ReplayPredictor): Observe
// updates them independently, so each needs only its own events.
//
// A WarmLog is written once (Observe) and then only read, so one log may
// warm any number of cores concurrently.
type WarmLog struct {
	chunks [][]byte
	// code holds the static memory and control instructions, indexed by
	// (PC - asm.CodeBase) / isa.InstBytes; other slots stay zero.
	code []isa.Instruction
	// n counts recorded instructions.
	n int
	// next is the PC replay reaches after the events so far and the gap.
	next uint64
	// gap counts plain instructions since the last event.
	gap uint64
	// lastAddr is the previous memory event's address.
	lastAddr   uint64
	overflowed bool
}

// Event kinds, the low three bits of an event's header byte.
const (
	evMem      = iota // memory access; payload: zigzag address delta
	evFall            // control, not taken, falls through to PC+4
	evTaken           // control, taken to its PC-relative target
	evTakenTo         // control, taken; payload: zigzag(target - PC)
	evFallTo          // control, not taken; payload: zigzag(target - PC)
	evSetPC           // no instruction; payload: the PC replay continues at
	kindBits   = 3
	gapEscape  = 0xff >> kindBits // header gap value meaning "varint follows"
	chunkBytes = 16 << 10
	// maxEventBytes is the longest event: header, gap varint, payload.
	maxEventBytes = 1 + 2*binary.MaxVarintLen64
)

// hasPayload reports whether events of kind carry a varint payload.
func hasPayload(kind int) bool { return kind != evFall && kind != evTaken }

// Observe appends one architectural record.
func (l *WarmLog) Observe(tr emu.Trace) {
	if l.overflowed {
		return
	}
	if l.n >= MaxWarmLogRecords {
		l.overflowed = true
		return
	}
	l.n++
	if tr.PC != l.next {
		l.emit(evSetPC, tr.PC)
		l.next = tr.PC
	}
	in := tr.Inst
	switch in.Class() {
	case isa.ClassLoad, isa.ClassStore:
		if !l.note(tr.PC, in) {
			return
		}
		l.emit(evMem, zigzag(tr.Addr-l.lastAddr))
		l.lastAddr = tr.Addr
		l.next = tr.PC + isa.InstBytes
	case isa.ClassBranch, isa.ClassJump:
		if !l.note(tr.PC, in) {
			return
		}
		switch {
		case !tr.Taken && tr.NextPC == tr.PC+isa.InstBytes:
			l.emit(evFall, 0)
		case tr.Taken && tr.NextPC == relTarget(tr.PC, in):
			l.emit(evTaken, 0)
		case tr.Taken:
			l.emit(evTakenTo, zigzag(tr.NextPC-tr.PC))
		default:
			l.emit(evFallTo, zigzag(tr.NextPC-tr.PC))
		}
		l.next = tr.NextPC
	default:
		l.gap++
		l.next = tr.PC + isa.InstBytes
	}
}

// note enters a memory or control instruction into the static table. A
// PC outside the code section, or a second distinct instruction at one
// PC, cannot be encoded: the log is marked unusable.
func (l *WarmLog) note(pc uint64, in isa.Instruction) bool {
	off := pc - asm.CodeBase
	if pc < asm.CodeBase || off%isa.InstBytes != 0 || off/isa.InstBytes >= MaxWarmLogRecords {
		l.overflowed = true
		return false
	}
	i := int(off / isa.InstBytes)
	if i >= len(l.code) {
		l.code = append(l.code, make([]isa.Instruction, i+1-len(l.code))...)
	}
	switch l.code[i] {
	case in:
	case isa.Instruction{}: // a NOP: never a memory or control instruction
		l.code[i] = in
	default:
		l.overflowed = true
		return false
	}
	return true
}

// emit appends one event carrying the pending gap, starting a new chunk
// when the current one might not hold it.
func (l *WarmLog) emit(kind int, payload uint64) {
	n := len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < maxEventBytes {
		l.chunks = append(l.chunks, make([]byte, 0, chunkBytes))
		n++
	}
	b := l.chunks[n-1]
	if l.gap < gapEscape {
		b = append(b, byte(kind)|byte(l.gap)<<kindBits)
	} else {
		b = append(b, byte(kind)|gapEscape<<kindBits)
		b = binary.AppendUvarint(b, l.gap-gapEscape)
	}
	if hasPayload(kind) {
		b = binary.AppendUvarint(b, payload)
	}
	l.chunks[n-1] = b
	l.gap = 0
}

// Len reports how many instructions are recorded.
func (l *WarmLog) Len() int { return l.n }

// Bytes reports the memory the log holds: its event chunks and its static
// instruction table.
func (l *WarmLog) Bytes() int64 {
	b := int64(cap(l.chunks)) * 24 // slice headers
	for _, c := range l.chunks {
		b += int64(cap(c))
	}
	return b + int64(cap(l.code))*8 // sizeof(isa.Instruction)
}

// Overflowed reports that the initialization phase could not be recorded
// — it was too long, or it left the code section — so the log is
// incomplete and must not be replayed.
func (l *WarmLog) Overflowed() bool { return l.overflowed }

// ReplayHierarchy feeds the log's instruction fetches and memory accesses
// into hier in recording order, then clears its statistics (the state is
// kept). A fetch is issued for each instruction that enters a new L1I
// line, derived from hier's own line size.
func (l *WarmLog) ReplayHierarchy(hier *mem.Hierarchy) {
	f := newLineFetcher(hier)
	var pc, addr uint64
	r := l.reader()
	for {
		kind, gap, payload, ok := r.next()
		if !ok {
			break
		}
		pc = f.run(pc, gap)
		if kind == evSetPC {
			pc = payload
			continue
		}
		f.fetch(pc)
		if kind == evMem {
			addr += unzigzag(payload)
			hier.Access(dataAccess(l.inst(pc)), pc, addr, 1)
			pc += isa.InstBytes
			continue
		}
		pc, _ = outcome(kind, pc, l.inst(pc), payload)
	}
	f.run(pc, l.gap)
	hier.ResetStats()
}

// ReplayPredictor feeds the log's control transfers into pred in
// recording order, then clears its statistics (the state is kept).
func (l *WarmLog) ReplayPredictor(pred *branch.Predictor) {
	var pc uint64
	r := l.reader()
	for {
		kind, gap, payload, ok := r.next()
		if !ok {
			break
		}
		pc += gap * isa.InstBytes
		switch kind {
		case evSetPC:
			pc = payload
		case evMem:
			pc += isa.InstBytes
		default:
			in := l.inst(pc)
			next, taken := outcome(kind, pc, in, payload)
			pred.Predict(pc, in)
			pred.Update(pc, in, taken, next)
			pc = next
		}
	}
	pred.Stats = branch.Stats{}
}

// inst returns the recorded static instruction at pc.
func (l *WarmLog) inst(pc uint64) isa.Instruction {
	return l.code[(pc-asm.CodeBase)/isa.InstBytes]
}

// outcome decodes a control event: the next PC and whether it was taken.
func outcome(kind int, pc uint64, in isa.Instruction, payload uint64) (next uint64, taken bool) {
	switch kind {
	case evFall:
		return pc + isa.InstBytes, false
	case evTaken:
		return relTarget(pc, in), true
	default:
		return pc + unzigzag(payload), kind == evTakenTo
	}
}

// relTarget is a direct control transfer's PC-relative target.
func relTarget(pc uint64, in isa.Instruction) uint64 {
	return pc + uint64(int64(in.Imm))*isa.InstBytes
}

func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// dataAccess is the kind of a memory instruction's data access.
func dataAccess(in isa.Instruction) mem.AccessKind {
	if in.Class() == isa.ClassStore {
		return mem.AccessStore
	}
	return mem.AccessLoad
}

// lineFetcher issues instruction fetches into a hierarchy, one per L1I line
// entered: live warming observes one instruction at a time, log replay
// whole runs of sequential instructions.
type lineFetcher struct {
	hier      *mem.Hierarchy
	lineBytes uint64
	last      uint64
}

func newLineFetcher(hier *mem.Hierarchy) lineFetcher {
	return lineFetcher{hier: hier, lineBytes: uint64(hier.L1I.Config().LineBytes), last: ^uint64(0)}
}

// fetch observes the instruction at pc.
func (f *lineFetcher) fetch(pc uint64) {
	if line := pc &^ (f.lineBytes - 1); line != f.last {
		f.hier.Access(mem.AccessFetch, pc, pc, 1)
		f.last = line
	}
}

// run observes n sequential instructions from pc and returns the PC after
// them. Within a line only its first instruction can enter it, so the
// walk visits one instruction per line: from pc it skips to the first
// instruction at or past the next line's start.
func (f *lineFetcher) run(pc, n uint64) uint64 {
	end := pc + n*isa.InstBytes
	for pc < end {
		f.fetch(pc)
		toNextLine := pc&^(f.lineBytes-1) + f.lineBytes - pc
		pc += (toNextLine + isa.InstBytes - 1) / isa.InstBytes * isa.InstBytes
	}
	return end
}

// logReader decodes a log's events in order.
type logReader struct {
	chunks [][]byte
	buf    []byte
}

func (l *WarmLog) reader() logReader { return logReader{chunks: l.chunks} }

// next decodes one event: its kind, the plain instructions before it and
// its payload (zero when the kind has none).
func (r *logReader) next() (kind int, gap, payload uint64, ok bool) {
	for len(r.buf) == 0 {
		if len(r.chunks) == 0 {
			return 0, 0, 0, false
		}
		r.buf, r.chunks = r.chunks[0], r.chunks[1:]
	}
	h := r.buf[0]
	r.buf = r.buf[1:]
	kind, gap = int(h&(1<<kindBits-1)), uint64(h>>kindBits)
	if gap == gapEscape {
		v, n := binary.Uvarint(r.buf)
		gap += v
		r.buf = r.buf[n:]
	}
	if hasPayload(kind) {
		v, n := binary.Uvarint(r.buf)
		payload = v
		r.buf = r.buf[n:]
	}
	return kind, gap, payload, true
}
