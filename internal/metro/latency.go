package metro

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// LatencyMatrix is the pluggable inter-metro latency model: MS[i][j] is
// the one-way latency in milliseconds from metro i to metro j. It
// drives two things: spill routing (an exhausted order goes to the
// lowest-latency unvisited neighbor) and the Eq. 18 locality coupling
// (Config.DistancePerMS tightens a spilled request's MaxDistance by the
// path latency, so far-away metros see a strictly pickier request).
//
// Matrices load from JSON — the same shape doublezero's
// internet-latency-collector emits per metro pair — or synthesize from
// a ring default. The matrix is consensus state in a federation: every
// exchange must run the same one, so Fingerprint() is part of the
// federation's head-hash seed.
type LatencyMatrix struct {
	// MS[i][j] is the latency from metro i to metro j in milliseconds.
	// The diagonal must be 0; off-diagonal entries must be finite and
	// non-negative. The matrix need not be symmetric.
	MS [][]float64 `json:"latency_ms"`
}

// DefaultMatrix synthesizes a ring topology over n metros: hop distance
// around the ring times 10 ms — neighbors at 10 ms, the far side at
// n/2·10 ms. A deterministic stand-in when no measured matrix is given.
func DefaultMatrix(n int) *LatencyMatrix {
	if n < 1 {
		n = 1
	}
	ms := make([][]float64, n)
	for i := range ms {
		ms[i] = make([]float64, n)
		for j := range ms[i] {
			d := i - j
			if d < 0 {
				d = -d
			}
			if n-d < d {
				d = n - d
			}
			ms[i][j] = float64(d) * 10
		}
	}
	return &LatencyMatrix{MS: ms}
}

// UniformMatrix builds an n×n matrix with every off-diagonal entry set
// to ms — the zero-latency (ms=0) input of the differential harness and
// the single knob of the welfare-vs-latency experiment axis.
func UniformMatrix(n int, ms float64) *LatencyMatrix {
	if n < 1 {
		n = 1
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i != j {
				out[i][j] = ms
			}
		}
	}
	return &LatencyMatrix{MS: out}
}

// ParseMatrix decodes and validates a JSON latency matrix.
func ParseMatrix(data []byte) (*LatencyMatrix, error) {
	var m LatencyMatrix
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("metro: parse latency matrix: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadMatrix reads a JSON latency matrix from a file.
func LoadMatrix(path string) (*LatencyMatrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metro: load latency matrix: %w", err)
	}
	return ParseMatrix(data)
}

// Metros returns the matrix dimension.
func (m *LatencyMatrix) Metros() int { return len(m.MS) }

// Validate checks the matrix is square with a zero diagonal and finite,
// non-negative entries.
func (m *LatencyMatrix) Validate() error {
	n := len(m.MS)
	if n == 0 {
		return fmt.Errorf("metro: latency matrix is empty")
	}
	for i, row := range m.MS {
		if len(row) != n {
			return fmt.Errorf("metro: latency matrix row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("metro: latency[%d][%d] = %v is not a finite non-negative latency", i, j, v)
			}
			if i == j && v != 0 {
				return fmt.Errorf("metro: latency[%d][%d] = %v, diagonal must be 0", i, j, v)
			}
		}
	}
	return nil
}

// Latency returns MS[from][to], or +Inf when either index is out of
// range (an unreachable metro never attracts a spill).
func (m *LatencyMatrix) Latency(from, to int) float64 {
	if from < 0 || from >= len(m.MS) || to < 0 || to >= len(m.MS) {
		return math.Inf(1)
	}
	return m.MS[from][to]
}

// Neighbors returns every other metro ordered by ascending latency from
// m, ties broken by metro index — the deterministic spill preference
// order.
func (m *LatencyMatrix) Neighbors(from int) []int {
	n := len(m.MS)
	if from < 0 || from >= n {
		return nil
	}
	out := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != from {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		la, lb := m.MS[from][out[a]], m.MS[from][out[b]]
		if la != lb {
			return la < lb
		}
		return out[a] < out[b]
	})
	return out
}

// SpillTarget is the spill-routing rule: the first of Neighbors(from)
// that is not in visited, a bitmask over metro indexes. It reports false
// when every other metro has been visited.
func (m *LatencyMatrix) SpillTarget(from int, visited uint64) (int, bool) {
	for _, to := range m.Neighbors(from) {
		if visited&(1<<uint(to)) == 0 {
			return to, true
		}
	}
	return -1, false
}

// Fingerprint hashes the matrix into the federation's head-hash seed,
// so two exchanges running different matrices can never agree on a
// chain.
func (m *LatencyMatrix) Fingerprint() [32]byte {
	data, _ := json.Marshal(m.MS)
	return sha256sum(data)
}
