package metrics

import (
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz stream opcodes: each value op reads its operand bytes after the
// opcode byte; opRead checks the recorder mid-stream.
const (
	opNaN      = iota // 6 payload bytes, sign from the opcode's top bit
	opZero            // ±0
	opInf             // ±Inf
	opSubnorm         // 6 mantissa bytes, signed
	opBoundary        // 2 prefix bytes, 1 offset byte: a key just below or at a prefix boundary
	opRun             // 1 byte: repeat the last value stageLen + b times
	opLatency         // 1 byte: a latency in the cluster band
	opRaw             // 8 bytes: any float64
	opRead            // 2 bytes: check Quantile at that q now
	numOps
)

// maxFuzzSamples and maxFuzzReads bound a decoded stream so one input
// stays quick.
const (
	maxFuzzSamples = 1 << 14
	maxFuzzReads   = 16
)

// decodeLatencies turns data into the values to observe, in order, and
// the stream positions (sample counts) and quantiles of mid-stream reads.
func decodeLatencies(data []byte) (vals []float64, reads [][2]float64) {
	take := func(n int) []byte {
		b := make([]byte, 8)
		n = copy(b, data[:min(n, len(data))])
		data = data[n:]
		return b
	}
	last := 0.03
	for len(data) > 0 && len(vals) < maxFuzzSamples {
		op := data[0]
		data = data[1:]
		sign := 1.0
		if op>>7 != 0 {
			sign = -1
		}
		var v float64
		switch op & 0x7f % numOps {
		case opNaN:
			payload := binary.LittleEndian.Uint64(take(6))
			v = math.Copysign(math.Float64frombits(0x7FF0000000000000|1<<51|payload), sign)
		case opZero:
			v = math.Copysign(0, sign)
		case opInf:
			v = math.Inf(int(sign))
		case opSubnorm:
			v = math.Copysign(math.Float64frombits(binary.LittleEndian.Uint64(take(6))), sign)
		case opBoundary:
			b := take(3)
			key := uint64(binary.LittleEndian.Uint16(b)) << 48
			v = keyFloat(key - uint64(b[2]&1))
		case opRun:
			for range stageLen + int(take(1)[0]) {
				vals = append(vals, last)
			}
			continue
		case opLatency:
			v = 0.0056 + float64(take(1)[0])/255*0.0944
		case opRaw:
			v = math.Float64frombits(binary.LittleEndian.Uint64(take(8)))
		case opRead:
			q := float64(binary.LittleEndian.Uint16(take(2))) / math.MaxUint16
			if len(reads) < maxFuzzReads {
				reads = append(reads, [2]float64{float64(len(vals)), q})
			}
			continue
		}
		vals = append(vals, v)
		last = v
	}
	return vals, reads
}

// sameSorted reports whether got matches the sort oracle's want:
// sameQuantile's rule for zeros, and any NaN for a NaN, since
// sort.Float64s leaves NaN payloads in no defined order either.
func sameSorted(got, want float64, mixedZeros bool) bool {
	return sameQuantile(got, want, mixedZeros) || math.IsNaN(got) && math.IsNaN(want)
}

// FuzzLatencyRecorder checks the recorder against the sort oracle on
// arbitrary streams of NaN payloads, ±0, ±Inf, subnormals, keys either
// side of a prefix boundary and runs longer than a staging block: Count,
// the draw-order Mean bit for bit (any NaN for a NaN), Summarize, and
// Quantile at fuzzed q, both mid-stream and at the end.
func FuzzLatencyRecorder(f *testing.F) {
	f.Add([]byte{opLatency, 10, opLatency, 200, opRead, 0, 0x80, opRun, 3, opLatency, 0, opRead, 0xff, 0xff})
	f.Add([]byte{opNaN, 1, 2, 3, 4, 5, 6, opNaN | 0x80, 9, 0, 0, 0, 0, 0, opZero, opZero | 0x80, opInf, opInf | 0x80, opRead, 0x33, 0x33})
	f.Add([]byte{opSubnorm, 1, 0, 0, 0, 0, 0, opSubnorm | 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, opRun, 0, opRead, 0, 0x40})
	f.Add([]byte{opBoundary, 0, 0xbf, 0, opBoundary, 0, 0xbf, 1, opRun, 255, opBoundary, 1, 0xbf, 1, opRead, 0xff, 0x7f})
	f.Add([]byte{opRaw, 1, 2, 3, 4, 5, 6, 7, 8, opRaw, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0xbf, opRun, 1, opRun, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, reads := decodeLatencies(data)
		// The oracle's samples: Observe clamps negative values to +0.
		raw := make([]float64, 0, len(vals))
		var r LatencyRecorder
		var pos, neg bool
		sum := 0.0
		check := func(q float64) {
			t.Helper()
			if got, want := r.Quantile(q), exhaustiveQuantile(raw, q); !sameSorted(got, want, pos && neg) {
				t.Fatalf("after %d samples: Quantile(%v) = %v (%#x), sort oracle %v (%#x)",
					len(raw), q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for i, v := range vals {
			for len(reads) > 0 && int(reads[0][0]) == i {
				check(reads[0][1])
				reads = reads[1:]
			}
			r.Observe(v)
			if v < 0 {
				v = 0
			}
			raw = append(raw, v)
			pos = pos || math.Float64bits(v) == 0
			neg = neg || math.Float64bits(v) == 1<<63
			sum += v
		}
		for _, rd := range reads {
			check(rd[1])
		}
		if r.Count() != len(raw) {
			t.Fatalf("Count() = %d, want %d", r.Count(), len(raw))
		}
		mean := 0.0
		if len(raw) > 0 {
			mean = sum / float64(len(raw))
		}
		// Which NaN payload a sum of NaNs carries depends on the operand
		// order the compiler picks for the addition, so any NaN matches.
		if got := r.Mean(); !sameSorted(got, mean, false) {
			t.Fatalf("Mean() = %v (%#x), draw-order mean %v (%#x)", got, math.Float64bits(got), mean, math.Float64bits(mean))
		}
		s := r.Summarize()
		for _, c := range [][2]float64{
			{s.Min, exhaustiveQuantile(raw, 0)}, {s.P25, exhaustiveQuantile(raw, 0.25)}, {s.Median, exhaustiveQuantile(raw, 0.5)},
			{s.P75, exhaustiveQuantile(raw, 0.75)}, {s.Max, exhaustiveQuantile(raw, 1)},
		} {
			if !sameSorted(c[0], c[1], pos && neg) {
				t.Fatalf("Summarize() = %+v, sort oracle reads %v where it reads %v", s, c[1], c[0])
			}
		}
		if s.Count != len(raw) || !sameSorted(s.Mean, mean, false) {
			t.Fatalf("Summarize() = %+v, want count %d and mean %v", s, len(raw), mean)
		}
	})
}
