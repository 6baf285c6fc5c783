package cpu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
)

// Trace serialization: a trace is by far the largest artifact the
// durable store holds (one 13-byte record per dynamic instruction),
// so it gets a packed little-endian codec instead of reflective gob —
// encoding is a flat copy and the byte image is deterministic for a
// given trace.
//
// Layout: magic "ARLT", u8 version, u32 name length + name bytes,
// 8 × u64 classifier counters, u64 instruction count, then count
// packed records of traceInstBytes each.
const (
	traceMagic        = "ARLT"
	traceCodecVersion = 1
	traceInstBytes    = 4 + 4 + 1 + 1 + 1 + 1 + 1 // Addr, Index, Class, Src1, Src2, Dest, Flags
)

// MarshalBinary encodes the trace in the packed record format. It
// implements encoding.BinaryMarshaler, which the artifact store
// prefers over gob.
func (t *Trace) MarshalBinary() ([]byte, error) {
	if len(t.Name) > 1<<20 {
		return nil, fmt.Errorf("cpu: trace name %d bytes long", len(t.Name))
	}
	// 8*8: the seven classifier counters and the instruction count.
	size := len(traceMagic) + 1 + 4 + len(t.Name) + 8*8 + len(t.Insts)*traceInstBytes
	buf := make([]byte, 0, size)
	buf = append(buf, traceMagic...)
	buf = append(buf, traceCodecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Name)))
	buf = append(buf, t.Name...)
	s := &t.PredictorStats
	for _, v := range []uint64{s.Total, s.Correct, s.StaticCovered, s.HintCovered,
		s.HintCorrect, s.TableLookups, s.TableCorrect, uint64(len(t.Insts))} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for i := range t.Insts {
		in := &t.Insts[i]
		buf = binary.LittleEndian.AppendUint32(buf, in.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Index))
		buf = append(buf, byte(in.Class), byte(in.Src1), byte(in.Src2), byte(in.Dest), in.Flags)
	}
	return buf, nil
}

// UnmarshalBinary decodes a trace encoded by MarshalBinary. It
// implements encoding.BinaryUnmarshaler; any framing violation is an
// error (the store quarantines the record and recomputes).
func (t *Trace) UnmarshalBinary(data []byte) error {
	bad := func(what string) error { return fmt.Errorf("cpu: trace codec: %s", what) }
	if len(data) < len(traceMagic)+1+4 || string(data[:len(traceMagic)]) != traceMagic {
		return bad("bad magic")
	}
	data = data[len(traceMagic):]
	if data[0] != traceCodecVersion {
		return bad(fmt.Sprintf("version %d, want %d", data[0], traceCodecVersion))
	}
	data = data[1:]
	nameLen := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if nameLen < 0 || nameLen > len(data) {
		return bad("name length out of range")
	}
	name := string(data[:nameLen])
	data = data[nameLen:]
	if len(data) < 8*8 {
		return bad("truncated counters")
	}
	var counters [8]uint64
	for i := range counters {
		counters[i] = binary.LittleEndian.Uint64(data)
		data = data[8:]
	}
	count := counters[7]
	if uint64(len(data)) != count*traceInstBytes {
		return bad(fmt.Sprintf("%d payload bytes for %d records", len(data), count))
	}
	insts := make([]TraceInst, count)
	for i := range insts {
		in := &insts[i]
		in.Addr = binary.LittleEndian.Uint32(data)
		in.Index = int32(binary.LittleEndian.Uint32(data[4:]))
		in.Class = isa.Class(data[8])
		in.Src1 = int8(data[9])
		in.Src2 = int8(data[10])
		in.Dest = int8(data[11])
		in.Flags = data[12]
		data = data[traceInstBytes:]
	}
	t.Name = name
	t.Insts = insts
	t.PredictorStats = core.ClassifyStats{
		Total: counters[0], Correct: counters[1],
		StaticCovered: counters[2], HintCovered: counters[3], HintCorrect: counters[4],
		TableLookups: counters[5], TableCorrect: counters[6],
	}
	return nil
}
