package dnn

import "fmt"

// Batched feed-forward evaluation: ForwardBatchInto runs Forward's layer
// kernel once per row of a flat row-major batch, into caller-owned scratch.
// No run path uses it (CORP's refresh predicts per VM through Forward); it
// remains for the repo benchmark's kernel row. Each row's chains are exactly
// forwardLayer's, so row r of the output is == Forward(row r).

// BatchScratch holds caller-owned activation planes for ForwardBatchInto.
// Plane d is row-major rows×sizes[d]. It is tied to a topology rather than
// a specific network, and each concurrent caller needs its own scratch.
type BatchScratch struct {
	sizes []int
	rows  int
	acts  [][]float64 // acts[d] is rows*sizes[d], row-major
}

// NewBatchScratch allocates batched forward scratch for this network's
// topology, good for up to rows input rows per call.
func (n *Network) NewBatchScratch(rows int) *BatchScratch {
	if rows < 1 {
		rows = 1
	}
	s := &BatchScratch{sizes: append([]int(nil), n.sizes...), rows: rows}
	slab := make([]float64, rows*sum(n.sizes))
	s.acts = make([][]float64, len(n.sizes))
	off := 0
	for d, sz := range n.sizes {
		s.acts[d] = slab[off : off+rows*sz : off+rows*sz]
		off += rows * sz
	}
	return s
}

// ForwardBatchInto evaluates the network on a batch of input rows stored
// in one flat row-major slab (rows = len(inputs)/inputSize) and returns
// the flat rows×outputSize output plane, owned by the scratch and
// overwritten by its next use. Row r of the result is bit-identical to
// Forward(inputs row r). It reads only the network's weights, so
// concurrent calls on one network are safe provided no training runs
// concurrently and each caller uses its own scratch. The call performs no
// heap allocations.
func (n *Network) ForwardBatchInto(s *BatchScratch, inputs []float64) ([]float64, error) {
	inSize := n.sizes[0]
	if len(inputs) == 0 || len(inputs)%inSize != 0 {
		return nil, fmt.Errorf("dnn: batch inputs length %d not a positive multiple of %d", len(inputs), inSize)
	}
	rows := len(inputs) / inSize
	if rows > s.rows {
		return nil, fmt.Errorf("dnn: batch of %d rows exceeds scratch capacity %d", rows, s.rows)
	}
	if len(s.sizes) != len(n.sizes) {
		return nil, fmt.Errorf("dnn: scratch for %d layers, network has %d", len(s.sizes), len(n.sizes))
	}
	for d, sz := range n.sizes {
		if s.sizes[d] != sz {
			return nil, fmt.Errorf("dnn: scratch topology %v, network %v", s.sizes, n.sizes)
		}
	}
	copy(s.acts[0][:rows*inSize], inputs)
	for d := 0; d < len(n.weights); d++ {
		forwardBatchLayer(n.weights[d], n.biases[d], s.acts[d], s.acts[d+1], n.sizes[d], n.sizes[d+1], rows)
	}
	outSize := n.sizes[len(n.sizes)-1]
	return s.acts[len(s.acts)-1][:rows*outSize], nil
}

// forwardBatchLayer applies one dense layer to a row-major rows×in
// activation plane, producing the rows×out plane, one forwardLayer call per
// row: at Table II widths the whole weight matrix stays cache-resident
// while the batch flows through it.
func forwardBatchLayer(w, b, prev, cur []float64, in, out, rows int) {
	for r := 0; r < rows; r++ {
		forwardLayer(w, b, prev[r*in:(r+1)*in], cur[r*out:(r+1)*out])
	}
}
