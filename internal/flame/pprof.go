package flame

// pprof export: the profile encoded as a gzip-compressed pprof
// profile.proto, loadable with `go tool pprof <file>`. The sample value
// is virtual nanoseconds ("virtualtime/nanoseconds"), one Sample per
// folded stack with leaf-first location ids, one Function/Location pair
// per unique frame. The encoder is hand-rolled protobuf (varint +
// length-delimited only — the whole message needs nothing else) so the
// repo stays dependency-free; a golden test decodes it back with an
// equally hand-rolled reader.
//
// Determinism: strings enter the table in sorted-stack/root-first-frame
// order, the gzip header carries no timestamp, and no wall-clock field is
// populated, so the same profile always encodes to the same bytes.

import (
	"compress/gzip"
	"io"

	"e3/internal/metrics"
)

// profile.proto field numbers (only the ones we emit).
const (
	profSampleType  = 1 // repeated ValueType
	profSample      = 2 // repeated Sample
	profLocation    = 4 // repeated Location
	profFunction    = 5 // repeated Function
	profStringTable = 6 // repeated string
	profDuration    = 10
	profPeriodType  = 11 // ValueType
	profPeriod      = 12

	vtType = 1 // ValueType.type (string index)
	vtUnit = 2 // ValueType.unit

	sampleLocationID = 1 // Sample.location_id (packed uint64)
	sampleValue      = 2 // Sample.value (packed int64)

	locID   = 1 // Location.id
	locLine = 4 // Location.line

	lineFunctionID = 1 // Line.function_id

	funcID         = 1 // Function.id
	funcName       = 2 // Function.name (string index)
	funcSystemName = 3
	funcFilename   = 4
)

// protoBuf is a minimal protobuf writer: varints and length-delimited
// fields are all profile.proto needs.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// tag writes a field key: field number shifted over the wire type
// (0 = varint, 2 = length-delimited).
func (p *protoBuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

func (p *protoBuf) int64Field(field int, v int64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(uint64(v))
}

func (p *protoBuf) bytesField(field int, b []byte) {
	p.tag(field, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) stringField(field int, s string) {
	p.tag(field, 2)
	p.varint(uint64(len(s)))
	p.b = append(p.b, s...)
}

// packedField writes a packed repeated varint field (skipped when empty).
func (p *protoBuf) packedField(field int, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	var inner protoBuf
	for _, v := range vals {
		inner.varint(v)
	}
	p.bytesField(field, inner.b)
}

// valueType encodes a ValueType{type, unit} submessage.
func valueType(typeIdx, unitIdx int64) []byte {
	var vt protoBuf
	vt.int64Field(vtType, typeIdx)
	vt.int64Field(vtUnit, unitIdx)
	return vt.b
}

// WritePprof encodes the profile as gzip-compressed profile.proto.
func (pr *Profile) WritePprof(w io.Writer) error {
	// String table: index 0 must be the empty string. Frames are interned
	// first-seen walking sorted stacks root-first, so the table order is a
	// pure function of the profile.
	strs := []string{"", "virtualtime", "nanoseconds"}
	strIdx := map[string]int64{"": 0, "virtualtime": 1, "nanoseconds": 2}
	intern := func(s string) int64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := int64(len(strs))
		strs = append(strs, s)
		strIdx[s] = i
		return i
	}

	// One Function + Location per unique frame; location id == function id.
	frameLoc := map[string]uint64{}
	var frameOrder []string
	locFor := func(frame string) uint64 {
		if id, ok := frameLoc[frame]; ok {
			return id
		}
		id := uint64(len(frameOrder) + 1)
		frameLoc[frame] = id
		frameOrder = append(frameOrder, frame)
		intern(frame)
		return id
	}

	var samples protoBuf
	for _, stack := range pr.sortedStacks() {
		weight := pr.Stacks[stack]
		if weight <= 0 {
			continue
		}
		frames := SplitStack(stack)
		// pprof wants leaf-first location ids; folded stacks are root-first.
		locs := make([]uint64, 0, len(frames))
		for i := len(frames) - 1; i >= 0; i-- {
			locs = append(locs, locFor(frames[i]))
		}
		var s protoBuf
		s.packedField(sampleLocationID, locs)
		s.packedField(sampleValue, []uint64{uint64(weight)})
		samples.bytesField(profSample, s.b)
	}

	var out protoBuf
	out.bytesField(profSampleType, valueType(1, 2))
	out.b = append(out.b, samples.b...)
	for i, frame := range frameOrder {
		id := uint64(i + 1)
		var loc protoBuf
		loc.int64Field(locID, int64(id))
		var line protoBuf
		line.int64Field(lineFunctionID, int64(id))
		loc.bytesField(locLine, line.b)
		out.bytesField(profLocation, loc.b)

		var fn protoBuf
		fn.int64Field(funcID, int64(id))
		fn.int64Field(funcName, strIdx[frame])
		fn.int64Field(funcSystemName, strIdx[frame])
		out.bytesField(profFunction, fn.b)
	}
	for _, s := range strs {
		out.stringField(profStringTable, s)
	}
	out.int64Field(profDuration, metrics.Nanos(pr.EndS)-metrics.Nanos(pr.StartS))
	out.bytesField(profPeriodType, valueType(1, 2))
	out.int64Field(profPeriod, 1)

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(out.b); err != nil {
		return err
	}
	return gz.Close()
}
