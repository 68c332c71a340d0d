package main

import (
	"fmt"
	"math"
	"strconv"

	"kernelselect/internal/gemm"
	"kernelselect/internal/workload"
)

// The three workloads. Each is a shape stream over the two hosted devices;
// what differs is how much the shapes repeat and which tiers serve them.
const (
	wlHot   = "hot-replica"
	wlMiss  = "miss-replica"
	wlFleet = "fleet-reload"
)

var workloads = []string{wlHot, wlMiss, wlFleet}

// Stream parameters: the largest fresh dimension and the share of fresh
// shapes in the fleet mix.
const (
	maxFreshDim = 8192
	fleetFresh  = 0.20
)

// request is one generated decision request: a device index into the
// stream's device list and a GEMM shape.
type request struct {
	dev   int
	shape gemm.Shape
}

// stream maps a request index to a request as a pure function of (seed,
// index), so generators on any number of goroutines draw the same inputs for
// the same seed, in any order, without a shared RNG.
type stream struct {
	seed    uint64
	devices []string
	fresh   float64      // share of log-uniform fresh shapes
	hot     []gemm.Shape // the dataset shapes, drawn uniformly
}

func newStream(kind string, seed uint64, devices []string) (*stream, error) {
	s := &stream{seed: seed, devices: devices}
	switch kind {
	case wlHot:
		s.fresh = 0
	case wlMiss:
		s.fresh = 1
	case wlFleet:
		s.fresh = fleetFresh
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", kind, workloads)
	}
	s.hot, _ = workload.DatasetShapes()
	return s, nil
}

const (
	saltDev = iota + 1
	saltKind
	saltHot
	saltM
	saltK
	saltN
)

// mix is a splitmix64-style hash of (seed, index, salt): a counter-based
// random source.
func mix(seed, i, salt uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i*0xBF58476D1CE4E5B9 + salt*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// at returns request i of the stream.
func (s *stream) at(i uint64) request {
	dev := int(mix(s.seed, i, saltDev) % uint64(len(s.devices)))
	if s.fresh > 0 && unit(mix(s.seed, i, saltKind)) < s.fresh {
		return request{dev: dev, shape: gemm.Shape{
			M: logUniform(mix(s.seed, i, saltM)),
			K: logUniform(mix(s.seed, i, saltK)),
			N: logUniform(mix(s.seed, i, saltN)),
		}}
	}
	return request{dev: dev, shape: s.hot[mix(s.seed, i, saltHot)%uint64(len(s.hot))]}
}

// logUniform draws a dimension log-uniformly from [1, maxFreshDim].
func logUniform(h uint64) int {
	d := int(math.Exp(unit(h) * math.Log(maxFreshDim+1)))
	if d < 1 {
		d = 1
	}
	if d > maxFreshDim {
		d = maxFreshDim
	}
	return d
}

// appendBody renders the canonical select body: integers without leading
// zeros, fields in the order encoding/json writes them, so the server's
// fast scanner and its strict decoder would agree on every byte.
func appendBody(b []byte, s gemm.Shape, device string) []byte {
	b = append(b, `{"m":`...)
	b = strconv.AppendInt(b, int64(s.M), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(s.K), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(s.N), 10)
	b = append(b, `,"device":"`...)
	b = append(b, device...)
	return append(b, `"}`...)
}

// appendShape renders a shape as serve's Decision.Shape does ("MxKxN").
func appendShape(b []byte, s gemm.Shape) []byte {
	b = strconv.AppendInt(b, int64(s.M), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(s.K), 10)
	b = append(b, 'x')
	return strconv.AppendInt(b, int64(s.N), 10)
}
