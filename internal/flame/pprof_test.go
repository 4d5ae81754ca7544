package flame_test

// Golden pprof-export test: WritePprof's output is decoded back with a
// hand-rolled varint/protobuf reader (mirroring the hand-rolled writer)
// and checked sample-by-sample against the profile's folded stacks. Also
// pins byte-level determinism: encoding the same profile twice must give
// identical bytes.

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"e3/internal/flame"
)

// uvarint decodes one base-128 varint.
func uvarint(t *testing.T, b []byte, i int) (uint64, int) {
	t.Helper()
	var v uint64
	var s uint
	for {
		if i >= len(b) {
			t.Fatalf("varint overruns buffer at %d", i)
		}
		c := b[i]
		i++
		v |= uint64(c&0x7f) << s
		if c < 0x80 {
			return v, i
		}
		s += 7
	}
}

// decodedProfile is the subset of profile.proto the test reads back.
type decodedProfile struct {
	sampleType [][2]int64 // {type, unit} string indexes
	samples    []struct {
		locs  []uint64
		value []int64
	}
	locFunc  map[uint64]uint64 // location id -> function id (via Line)
	funcName map[uint64]int64  // function id -> name string index
	strings  []string
	duration int64
	period   int64
}

// decodePprof parses the gzip profile.proto WritePprof emits. It only
// understands the fields the writer produces, and fails the test on any
// other wire shape — which is the point: the output must stay exactly
// this simple.
func decodePprof(t *testing.T, data []byte) *decodedProfile {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}

	dp := &decodedProfile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	fields := func(b []byte, fn func(field uint64, wire uint64, v uint64, body []byte)) {
		i := 0
		for i < len(b) {
			key, ni := uvarint(t, b, i)
			i = ni
			field, wire := key>>3, key&7
			switch wire {
			case 0:
				v, ni := uvarint(t, b, i)
				i = ni
				fn(field, 0, v, nil)
			case 2:
				l, ni := uvarint(t, b, i)
				i = ni
				if i+int(l) > len(b) {
					t.Fatalf("field %d body overruns buffer", field)
				}
				fn(field, 2, 0, b[i:i+int(l)])
				i += int(l)
			default:
				t.Fatalf("unexpected wire type %d for field %d", wire, field)
			}
		}
	}
	packed := func(b []byte) []uint64 {
		var out []uint64
		i := 0
		for i < len(b) {
			var v uint64
			v, i = uvarint(t, b, i)
			out = append(out, v)
		}
		return out
	}

	fields(raw, func(field, wire, v uint64, body []byte) {
		switch field {
		case 1, 11: // sample_type, period_type
			var vt [2]int64
			fields(body, func(f, _, u uint64, _ []byte) {
				if f >= 1 && f <= 2 {
					vt[f-1] = int64(u)
				}
			})
			if field == 1 {
				dp.sampleType = append(dp.sampleType, vt)
			}
		case 2: // sample
			var s struct {
				locs  []uint64
				value []int64
			}
			fields(body, func(f, _, _ uint64, sb []byte) {
				switch f {
				case 1:
					s.locs = packed(sb)
				case 2:
					for _, u := range packed(sb) {
						s.value = append(s.value, int64(u))
					}
				}
			})
			dp.samples = append(dp.samples, s)
		case 4: // location
			var id, fid uint64
			fields(body, func(f, _, u uint64, lb []byte) {
				switch f {
				case 1:
					id = u
				case 4: // line
					fields(lb, func(lf, _, lu uint64, _ []byte) {
						if lf == 1 {
							fid = lu
						}
					})
				}
			})
			dp.locFunc[id] = fid
		case 5: // function
			var id uint64
			var name int64
			fields(body, func(f, _, u uint64, _ []byte) {
				switch f {
				case 1:
					id = u
				case 2:
					name = int64(u)
				}
			})
			dp.funcName[id] = name
		case 6: // string_table
			dp.strings = append(dp.strings, string(body))
		case 10:
			dp.duration = int64(v)
		case 12:
			dp.period = int64(v)
		}
	})
	return dp
}

// goldenProfile builds a small fixed profile covering every frame class:
// useful/ramp/pad busy decomposition, a transfer-blocked gap, a
// queue-starved gap, and trailing drained/idle time.
func goldenProfile() *flame.Profile {
	p := flame.NewProfiler(0)
	d0 := p.Register("V100-0", "V100")
	d1 := p.Register("V100-1", "V100")
	p.Execute(d0, "DeeBERT", 0, 1, 3, 0.0, 0.010, 0.001, 0.002)
	p.Transfer(1, 0.010, 0.011)
	p.Execute(d1, "DeeBERT", 1, 4, 6, 0.011, 0.030, 0, 0)
	p.Execute(d0, "DeeBERT", 0, 1, 3, 0.020, 0.025, 0, 0)
	p.CloseAt(0.040)
	return p.Profile()
}

func TestPprofExportDecodesBack(t *testing.T) {
	pr := goldenProfile()
	var buf bytes.Buffer
	if err := pr.WritePprof(&buf); err != nil {
		t.Fatalf("WritePprof: %v", err)
	}
	dp := decodePprof(t, buf.Bytes())

	// Sample type is virtualtime/nanoseconds, string 0 is empty.
	if len(dp.strings) < 3 || dp.strings[0] != "" {
		t.Fatalf("string table must start with \"\": %q", dp.strings[:min(3, len(dp.strings))])
	}
	if len(dp.sampleType) != 1 {
		t.Fatalf("want 1 sample type, got %d", len(dp.sampleType))
	}
	st := dp.sampleType[0]
	if dp.strings[st[0]] != "virtualtime" || dp.strings[st[1]] != "nanoseconds" {
		t.Fatalf("sample type %q/%q, want virtualtime/nanoseconds",
			dp.strings[st[0]], dp.strings[st[1]])
	}
	if dp.period != 1 {
		t.Fatalf("period = %d, want 1", dp.period)
	}
	if dp.duration <= 0 {
		t.Fatalf("duration_nanos = %d, want > 0", dp.duration)
	}

	// Every sample must rebuild (leaf-first locations → root-first frames)
	// into exactly one folded stack with the same weight, and every stack
	// must appear exactly once.
	seen := map[string]int64{}
	for i, s := range dp.samples {
		if len(s.value) != 1 {
			t.Fatalf("sample %d has %d values, want 1", i, len(s.value))
		}
		frames := make([]string, 0, len(s.locs))
		for j := len(s.locs) - 1; j >= 0; j-- { // undo leaf-first
			fid, ok := dp.locFunc[s.locs[j]]
			if !ok {
				t.Fatalf("sample %d references unknown location %d", i, s.locs[j])
			}
			nameIdx, ok := dp.funcName[fid]
			if !ok {
				t.Fatalf("location %d references unknown function %d", s.locs[j], fid)
			}
			frames = append(frames, dp.strings[nameIdx])
		}
		seen[flame.JoinStack(frames)] += s.value[0]
	}
	for stack, w := range pr.Stacks {
		if w <= 0 {
			continue
		}
		if seen[stack] != w {
			t.Errorf("stack %q: pprof weight %d, folded weight %d", stack, seen[stack], w)
		}
		delete(seen, stack)
	}
	for stack, w := range seen {
		if _, ok := pr.Stacks[stack]; !ok {
			t.Errorf("pprof has extra stack %q (weight %d)", stack, w)
		}
	}

	// Byte-level determinism: same profile, same bytes.
	var buf2 bytes.Buffer
	if err := pr.WritePprof(&buf2); err != nil {
		t.Fatalf("WritePprof (second): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding the same profile twice produced different bytes")
	}
}

// TestPprofGoldenWeights pins the golden profile's exact decomposition so
// an accidental change to the busy/gap classifier shows up as a diff here
// rather than only as a flamegate failure downstream.
func TestPprofGoldenWeights(t *testing.T) {
	pr := goldenProfile()
	want := map[string]int64{
		"gpu:V100;dev:V100-0;model:DeeBERT;split:0;layers:1-3;useful":        12_000_000,
		"gpu:V100;dev:V100-0;model:DeeBERT;split:0;layers:1-3;ramp-overhead": 1_000_000,
		"gpu:V100;dev:V100-0;model:DeeBERT;split:0;layers:1-3;pad-waste":     2_000_000,
		"gpu:V100;dev:V100-0;bubble;split:0;queue-starved":                   10_000_000,
		"gpu:V100;dev:V100-0;bubble;split:0;drained":                         15_000_000,
		"gpu:V100;dev:V100-1;model:DeeBERT;split:1;layers:4-6;useful":        19_000_000,
		"gpu:V100;dev:V100-1;bubble;split:1;idle":                            11_000_000,
		"gpu:V100;dev:V100-1;bubble;split:1;drained":                         10_000_000,
	}
	for stack, w := range want {
		if pr.Stacks[stack] != w {
			t.Errorf("stack %q = %d, want %d", stack, pr.Stacks[stack], w)
		}
	}
	var total int64
	for _, w := range pr.Stacks {
		total += w
	}
	var wantTotal int64
	for _, w := range want {
		wantTotal += w
	}
	if total != wantTotal {
		t.Errorf("profile has extra weight: total %d, want %d; stacks: %v", total, wantTotal, pr.Stacks)
	}
}
